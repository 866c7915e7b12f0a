/**
 * @file
 * Implementation of the DOTA detector.
 */
#include "detect/detector.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"

namespace dota {

DotaDetector::DotaDetector(const TransformerConfig &model_cfg,
                           DetectorConfig cfg)
    : model_cfg_(model_cfg), cfg_(cfg)
{
    const size_t head_dim = model_cfg_.headDim();
    k_ = std::max<size_t>(
        1, static_cast<size_t>(std::floor(
               cfg_.sigma * static_cast<double>(head_dim))));
    Rng rng(cfg_.seed);
    p_ = sparseRandomProjection(model_cfg_.dim, k_, rng);

    const size_t slots = model_cfg_.layers * model_cfg_.heads;
    wq_.reserve(slots);
    wk_.reserve(slots);
    for (size_t s = 0; s < slots; ++s) {
        // Near-identity init: the estimate starts as the projected inner
        // product, which is already correlated with S.
        Matrix init_q = Matrix::identity(k_);
        Matrix init_k = Matrix::identity(k_);
        Matrix noise_q = Matrix::randomNormal(k_, k_, rng, 0.0f, 0.05f);
        Matrix noise_k = Matrix::randomNormal(k_, k_, rng, 0.0f, 0.05f);
        wq_.emplace_back(format("det.wq{}", s), add(init_q, noise_q));
        wk_.emplace_back(format("det.wk{}", s), add(init_k, noise_k));
    }
    qt_.resize(slots);
    kt_.resize(slots);
    est_.resize(slots);
    diff_.resize(slots);
}

size_t
DotaDetector::headIndex(size_t layer, size_t head) const
{
    DOTA_ASSERT(layer < model_cfg_.layers && head < model_cfg_.heads,
                "detector slot ({}, {}) out of range", layer, head);
    return layer * model_cfg_.heads + head;
}

size_t
DotaDetector::keepCount(size_t n) const
{
    return std::max<size_t>(
        1, static_cast<size_t>(std::llround(
               cfg_.retention * static_cast<double>(n))));
}

Matrix
DotaDetector::quantizedProduct(const Matrix &xp, const Matrix &w) const
{
    if (!cfg_.quantize)
        return matmul(xp, w);
    // Operands at cfg_.bits; the product is re-quantized at double width,
    // the representation the RMMU carries into the S~ GEMM (Section 5.5).
    const Matrix prod = matmul(xp, fakeQuant(w, cfg_.bits));
    return fakeQuant(prod, std::min(16, 2 * cfg_.bits));
}

void
DotaDetector::beginLayer(size_t layer, const Matrix &x)
{
    current_layer_ = layer;
    xp_ = matmul(x, p_);
    xp_q_ = cfg_.quantize ? fakeQuant(xp_, cfg_.bits) : xp_;
}

Matrix
DotaDetector::selectMask(size_t layer, size_t head, bool causal)
{
    const size_t slot = headIndex(layer, head);
    DOTA_ASSERT(layer == current_layer_,
                "selectMask for layer {} but beginLayer saw {}", layer,
                current_layer_);

    qt_[slot] = quantizedProduct(xp_q_, wq_[slot].value);
    kt_[slot] = quantizedProduct(xp_q_, wk_[slot].value);
    if (!cfg_.apply_mask) {
        // Warmup: the estimate is trained but attention stays dense.
        estimateRows(slot, causal, nullptr);
        return {};
    }
    const size_t n = qt_[slot].rows();
    Matrix mask(n, n);
    estimateRows(slot, causal, &mask);
    return mask;
}

void
DotaDetector::estimateRows(size_t slot, bool causal, Matrix *mask)
{
    const Matrix &qt = qt_[slot];
    const Matrix &kt = kt_[slot];
    const size_t n = qt.rows();
    Matrix &est = est_[slot];
    if (est.rows() != n || est.cols() != n)
        est = Matrix(n, n);
    const size_t keep = keepCount(n);
    const auto &kernels = activeGemmKernels();
    // Inference never reads S~ past the diagonal of a causal row, so
    // only the visible prefix is estimated; training keeps the full
    // square for the estimation loss against the full S.
    const bool prefix = causal && !cfg_.train;
    forRowBlocks(n, n, [&](size_t r0, size_t r1) {
        TopkScratch scratch;
        for (size_t i = r0; i < r1; ++i) {
            const size_t visible = causal ? i + 1 : n;
            float *row = est.row(i);
            kernels.matmulBTRows(qt, kt, est.data(), n,
                                 prefix ? visible : n, i, i + 1);
            if (prefix)
                std::fill(row + visible, row + n, 0.0f);
            if (mask == nullptr)
                continue;
            float *out = mask->row(i);
            if (!cfg_.use_threshold) {
                selectRowTopK(row, visible, keep, scratch, out);
                continue;
            }
            for (size_t j = 0; j < visible; ++j)
                out[j] = row[j] >= cfg_.threshold ? 1.0f : 0.0f;
            if (causal)
                out[i] = 1.0f; // guarantee progress: keep the diagonal
        }
    });
}

void
DotaDetector::observeScores(size_t layer, size_t head,
                            const Matrix &s_true)
{
    const size_t slot = headIndex(layer, head);
    DOTA_ASSERT(!est_[slot].empty(), "observeScores before selectMask");
    diff_[slot] = sub(est_[slot], s_true); // S~ - S
    const double loss = mse(est_[slot], s_true);
    mse_sum_ += loss;
    ++mse_count_;

    if (!cfg_.train)
        return;

    // Detector parameter gradients (straight-through across quantizers):
    //   L = lambda * mean (S~ - S)^2,  S~ = Q~ K~^T
    //   dS~ = coef * (S~ - S); dQ~ = dS~ K~; dK~ = dS~^T Q~
    //   dW~q = (XP)^T dQ~;     dW~k = (XP)^T dK~
    // Computed here (forward time) so the detector can also be trained
    // without a model backward pass (warmup on a frozen model).
    const Matrix &d = diff_[slot];
    const float coef = static_cast<float>(
        2.0 * cfg_.lambda / static_cast<double>(d.size()));
    const Matrix ds_est = scale(d, coef);
    const Matrix dqt = matmul(ds_est, kt_[slot]);
    const Matrix dkt = matmulAT(ds_est, qt_[slot]);
    const Matrix dwq = matmulAT(xp_q_, dqt);
    const Matrix dwk = matmulAT(xp_q_, dkt);
    for (size_t i = 0; i < dwq.size(); ++i) {
        wq_[slot].grad.data()[i] += dwq.data()[i];
        wk_[slot].grad.data()[i] += dwk.data()[i];
    }
}

Matrix
DotaDetector::scoreGradient(size_t layer, size_t head)
{
    if (!cfg_.train || !cfg_.inject_model_grad)
        return {};
    const size_t slot = headIndex(layer, head);
    DOTA_ASSERT(!diff_[slot].empty(), "scoreGradient before observeScores");
    const Matrix &d = diff_[slot];
    const float coef = static_cast<float>(
        2.0 * cfg_.lambda / static_cast<double>(d.size()));
    // Gradient injected into the model: dL/dS = -coef * (S~ - S).
    return scale(d, -coef);
}

void
DotaDetector::collectParams(std::vector<Parameter *> &out)
{
    for (auto &p : wq_)
        out.push_back(&p);
    for (auto &p : wk_)
        out.push_back(&p);
}

double
DotaDetector::consumeMseLoss()
{
    const double mean =
        mse_count_ ? mse_sum_ / static_cast<double>(mse_count_) : 0.0;
    mse_sum_ = 0.0;
    mse_count_ = 0;
    return mean;
}

const Matrix &
DotaDetector::lastEstimate(size_t layer, size_t head) const
{
    return est_[layer * model_cfg_.heads + head];
}

Matrix
DotaDetector::estimateScores(size_t layer, size_t head, const Matrix &x)
{
    beginLayer(layer, x);
    const size_t slot = headIndex(layer, head);
    qt_[slot] = quantizedProduct(xp_q_, wq_[slot].value);
    kt_[slot] = quantizedProduct(xp_q_, wk_[slot].value);
    estimateRows(slot, false, nullptr);
    return est_[slot];
}

} // namespace dota
