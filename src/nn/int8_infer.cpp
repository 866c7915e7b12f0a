/**
 * @file
 * Implementation of the int8 inference path: calibration, plan
 * quantization, full-sequence and incremental forwards.
 */
#include "nn/int8_infer.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"
#include "nn/attention_backend.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace dota {

namespace {

/** Copy columns [h*dh, (h+1)*dh) of @p m (the per-head slice). */
Matrix
colSlice(const Matrix &m, size_t h, size_t dh)
{
    Matrix s(m.rows(), dh);
    const size_t off = h * dh;
    for (size_t i = 0; i < m.rows(); ++i) {
        const float *src = m.row(i) + off;
        std::copy(src, src + dh, s.row(i));
    }
    return s;
}

/** Fold the finite max |x| of @p m into a running range. */
void
observeRange(float &range, const Matrix &m)
{
    for (size_t i = 0; i < m.size(); ++i) {
        const float a = std::abs(m.data()[i]);
        if (std::isfinite(a))
            range = std::max(range, a);
    }
}

/**
 * fp32 replication of one encoder block (the dense path of
 * EncoderBlock::forward, hook-free: the dense backend's head),
 * recording max |x| at each int8 quantization site. The same
 * accessor-based re-implementation pattern as the incremental decode
 * path (nn/decode.cpp).
 */
Matrix
calibrateBlock(EncoderBlock &blk, Int8LayerRanges &r, const Matrix &x,
               bool causal)
{
    MultiHeadAttention &attn = blk.attention();
    const size_t n = x.rows();
    const size_t dh = attn.headDim();
    const size_t heads = attn.heads();
    observeRange(r.x, x);

    const Matrix q = matmul(x, attn.wq());
    const Matrix k = matmul(x, attn.wk());
    const Matrix v = matmul(x, attn.wv());
    observeRange(r.q, q);
    observeRange(r.k, k);
    observeRange(r.v, v);

    Matrix z(n, attn.heads() * dh);
    for (size_t h = 0; h < heads; ++h) {
        const Matrix qh = colSlice(q, h, dh);
        const Matrix kh = colSlice(k, h, dh);
        const Matrix vh = colSlice(v, h, dh);
        AttnHeadProblem p;
        p.q = &qh;
        p.k = &kh;
        p.v = &vh;
        p.scale = 1.0f / std::sqrt(static_cast<float>(dh));
        p.causal = causal;
        const Matrix zh =
            attentionBackend(AttnBackendKind::Dense).runHead(p).z;
        for (size_t i = 0; i < n; ++i)
            std::copy(zh.row(i), zh.row(i) + dh, z.row(i) + h * dh);
    }
    observeRange(r.z, z);

    const Matrix a = matmul(z, attn.wo());
    Matrix mean, rstd;
    const Matrix h1 = layerNorm(add(x, a), blk.ln1().gamma(),
                                blk.ln1().beta(), mean, rstd);
    observeRange(r.h1, h1);
    const Matrix pre = addRowBroadcast(
        matmul(h1, blk.fc1().weight().value), blk.fc1().bias().value);
    const Matrix hidden =
        blk.activation() == Activation::ReLU ? relu(pre) : gelu(pre);
    observeRange(r.hidden, hidden);
    const Matrix f = addRowBroadcast(
        matmul(hidden, blk.fc2().weight().value), blk.fc2().bias().value);
    return layerNorm(add(h1, f), blk.ln2().gamma(), blk.ln2().beta(),
                     mean, rstd);
}

/** Quantize one block's weights and freeze its activation scales. */
Int8BlockPlan
buildBlockPlan(EncoderBlock &blk, const Int8LayerRanges &r)
{
    MultiHeadAttention &attn = blk.attention();
    auto wscale = [](const Matrix &w) {
        return chooseSymmetricScale(w, 8).scale;
    };
    Int8BlockPlan bp;
    bp.wq = quantizeS8Transposed(attn.wq(), wscale(attn.wq()));
    bp.wk = quantizeS8Transposed(attn.wk(), wscale(attn.wk()));
    bp.wv = quantizeS8Transposed(attn.wv(), wscale(attn.wv()));
    bp.wo = quantizeS8Transposed(attn.wo(), wscale(attn.wo()));
    const Matrix &w1 = blk.fc1().weight().value;
    const Matrix &w2 = blk.fc2().weight().value;
    bp.fc1 = quantizeS8Transposed(w1, wscale(w1));
    bp.fc2 = quantizeS8Transposed(w2, wscale(w2));
    bp.x_scale = symmetricScaleFromMaxAbs(r.x, kU8ActQmax);
    bp.q_scale = symmetricScaleFromMaxAbs(r.q, kU8ActQmax);
    bp.k_scale = symmetricScaleFromMaxAbs(r.k, kS8Qmax);
    bp.v_scale = symmetricScaleFromMaxAbs(r.v, kS8Qmax);
    bp.z_scale = symmetricScaleFromMaxAbs(r.z, kU8ActQmax);
    bp.h1_scale = symmetricScaleFromMaxAbs(r.h1, kU8ActQmax);
    bp.hidden_scale = symmetricScaleFromMaxAbs(r.hidden, kU8ActQmax);
    const float inv_sqrt_dk =
        1.0f / std::sqrt(static_cast<float>(attn.headDim()));
    bp.softmax =
        IntSoftmaxLut(bp.q_scale * bp.k_scale * inv_sqrt_dk);
    return bp;
}

/**
 * One int8 encoder block forward. @p hook is the attention hook
 * installed on this block's layer (nullptr for none): selectMask gates
 * the integer softmax exactly as it gates the fp path, so detector-
 * driven sparsity composes with the integer datapath.
 */
Matrix
int8Block(EncoderBlock &blk, const Int8BlockPlan &bp, const Matrix &x,
          size_t layer, bool causal)
{
    MultiHeadAttention &attn = blk.attention();
    AttentionHook *hook = attn.hook();
    const size_t n = x.rows();
    const size_t dh = attn.headDim();
    const size_t heads = attn.heads();
    const size_t d = heads * dh;

    const U8Tensor xq = quantizeU8(x, bp.x_scale);
    const Matrix q = int8MatmulBT(xq, bp.wq);
    const Matrix k = int8MatmulBT(xq, bp.wk);
    const Matrix v = int8MatmulBT(xq, bp.wv);

    if (hook)
        hook->beginLayer(layer, x);

    Matrix z(n, d);
    std::vector<int32_t> raw;
    for (size_t h = 0; h < heads; ++h) {
        const Matrix qh = colSlice(q, h, dh);
        const Matrix kh = colSlice(k, h, dh);
        const Matrix vh = colSlice(v, h, dh);

        Matrix mask;
        if (hook) {
            hook->observeQK(layer, h, qh, kh);
            mask = hook->selectMask(layer, h, causal);
        }
        // Same rule as the fp attention layer: a hook mask replaces the
        // causal constraint; with a hook but no mask the full square
        // runs under the cached triangle; hook-free causal heads compute
        // only the triangle.
        const Matrix *keep = nullptr;
        if (!mask.empty())
            keep = &mask;
        else if (causal && hook)
            keep = &attn.cachedCausalMask(n);

        const U8Tensor qq = quantizeU8(qh, bp.q_scale);
        const Int8Tensor kk = quantizeS8(kh, bp.k_scale);
        const Int8Tensor vt = quantizeS8Transposed(vh, bp.v_scale);

        const bool observe = hook && hook->wantsFullScores();
        const Matrix zh = int8AttentionHead(qq, kk, vt, bp.softmax, keep,
                                            causal, observe ? &raw : nullptr);
        if (observe) {
            // Estimation-loss hooks observe the dequantized raw scores
            // (the integer path's view of S = QK^T).
            Matrix s(n, n);
            const float ss = qq.scale * kk.scale;
            for (size_t i = 0; i < s.size(); ++i)
                s.data()[i] = static_cast<float>(raw[i]) * ss;
            hook->observeScores(layer, h, s);
        }
        for (size_t i = 0; i < n; ++i)
            std::copy(zh.row(i), zh.row(i) + dh, z.row(i) + h * dh);
    }

    const U8Tensor zq = quantizeU8(z, bp.z_scale);
    const Matrix a = int8MatmulBT(zq, bp.wo);

    Matrix mean, rstd;
    const Matrix h1 = layerNorm(add(x, a), blk.ln1().gamma(),
                                blk.ln1().beta(), mean, rstd);
    const U8Tensor h1q = quantizeU8(h1, bp.h1_scale);
    const Matrix pre =
        int8MatmulBT(h1q, bp.fc1, &blk.fc1().bias().value);
    const Matrix hidden =
        blk.activation() == Activation::ReLU ? relu(pre) : gelu(pre);
    const U8Tensor hq = quantizeU8(hidden, bp.hidden_scale);
    const Matrix f = int8MatmulBT(hq, bp.fc2, &blk.fc2().bias().value);
    return layerNorm(add(h1, f), blk.ln2().gamma(), blk.ln2().beta(),
                     mean, rstd);
}

} // namespace

Int8Calibration
calibrateClassifier(TransformerClassifier &model,
                    const std::vector<Matrix> &samples)
{
    const TransformerConfig &cfg = model.config();
    Int8Calibration calib;
    calib.layers.resize(cfg.layers);
    for (const Matrix &features : samples) {
        observeRange(calib.input, features);
        Matrix h = model.inputLayer().forward(features);
        for (size_t l = 0; l < cfg.layers; ++l)
            h = calibrateBlock(*model.blocks()[l], calib.layers[l], h,
                               /*causal=*/false);
        Matrix pooled(1, cfg.dim);
        const float inv = 1.0f / static_cast<float>(h.rows());
        for (size_t i = 0; i < h.rows(); ++i)
            for (size_t j = 0; j < h.cols(); ++j)
                pooled(0, j) += h(i, j) * inv;
        observeRange(calib.final_h, pooled);
    }
    return calib;
}

Int8Calibration
calibrateLM(CausalLM &model,
            const std::vector<std::vector<int>> &samples)
{
    const TransformerConfig &cfg = model.config();
    Int8Calibration calib;
    calib.layers.resize(cfg.layers);
    for (const std::vector<int> &ids : samples) {
        Matrix h = model.tokenEmbedding().forward(ids);
        for (size_t i = 0; i < h.rows(); ++i)
            for (size_t j = 0; j < h.cols(); ++j)
                h(i, j) += model.positionTable()(i, j);
        for (size_t l = 0; l < cfg.layers; ++l)
            h = calibrateBlock(*model.blocks()[l], calib.layers[l], h,
                               /*causal=*/true);
        observeRange(calib.final_h, h);
    }
    return calib;
}

Int8Plan
quantizeClassifier(TransformerClassifier &model,
                   const Int8Calibration &calib)
{
    const TransformerConfig &cfg = model.config();
    DOTA_ASSERT(calib.layers.size() == cfg.layers,
                "calibration covers {} layers, model has {}",
                calib.layers.size(), cfg.layers);
    Int8Plan plan;
    const Matrix &wi = model.inputLayer().weight().value;
    plan.input = quantizeS8Transposed(wi, chooseSymmetricScale(wi, 8).scale);
    const Matrix &wh = model.headLayer().weight().value;
    plan.head = quantizeS8Transposed(wh, chooseSymmetricScale(wh, 8).scale);
    plan.input_scale = symmetricScaleFromMaxAbs(calib.input, kU8ActQmax);
    plan.final_scale = symmetricScaleFromMaxAbs(calib.final_h, kU8ActQmax);
    plan.blocks.reserve(cfg.layers);
    for (size_t l = 0; l < cfg.layers; ++l)
        plan.blocks.push_back(
            buildBlockPlan(*model.blocks()[l], calib.layers[l]));
    return plan;
}

Int8Plan
quantizeLM(CausalLM &model, const Int8Calibration &calib)
{
    const TransformerConfig &cfg = model.config();
    DOTA_ASSERT(calib.layers.size() == cfg.layers,
                "calibration covers {} layers, model has {}",
                calib.layers.size(), cfg.layers);
    Int8Plan plan;
    const Matrix &wh = model.lmHead().weight().value;
    plan.head = quantizeS8Transposed(wh, chooseSymmetricScale(wh, 8).scale);
    plan.final_scale = symmetricScaleFromMaxAbs(calib.final_h, kU8ActQmax);
    plan.blocks.reserve(cfg.layers);
    for (size_t l = 0; l < cfg.layers; ++l)
        plan.blocks.push_back(
            buildBlockPlan(*model.blocks()[l], calib.layers[l]));
    return plan;
}

Matrix
int8Forward(TransformerClassifier &model, const Int8Plan &plan,
            const Matrix &features)
{
    const TransformerConfig &cfg = model.config();
    DOTA_ASSERT(plan.blocks.size() == cfg.layers,
                "plan covers {} layers, model has {}", plan.blocks.size(),
                cfg.layers);
    const U8Tensor fq = quantizeU8(features, plan.input_scale);
    LinearLayer &input = model.inputLayer();
    Matrix h = int8MatmulBT(
        fq, plan.input, input.hasBias() ? &input.bias().value : nullptr);
    for (size_t l = 0; l < cfg.layers; ++l)
        h = int8Block(*model.blocks()[l], plan.blocks[l], h, l,
                      /*causal=*/false);
    Matrix pooled(1, cfg.dim);
    const float inv = 1.0f / static_cast<float>(h.rows());
    for (size_t i = 0; i < h.rows(); ++i)
        for (size_t j = 0; j < h.cols(); ++j)
            pooled(0, j) += h(i, j) * inv;
    const U8Tensor pq = quantizeU8(pooled, plan.final_scale);
    LinearLayer &head = model.headLayer();
    return int8MatmulBT(pq, plan.head,
                        head.hasBias() ? &head.bias().value : nullptr);
}

Matrix
int8Forward(CausalLM &model, const Int8Plan &plan,
            const std::vector<int> &ids)
{
    const TransformerConfig &cfg = model.config();
    DOTA_ASSERT(plan.blocks.size() == cfg.layers,
                "plan covers {} layers, model has {}", plan.blocks.size(),
                cfg.layers);
    DOTA_ASSERT(ids.size() <= cfg.max_seq,
                "sequence length {} exceeds max {}", ids.size(),
                cfg.max_seq);
    Matrix h = model.tokenEmbedding().forward(ids);
    for (size_t i = 0; i < h.rows(); ++i)
        for (size_t j = 0; j < h.cols(); ++j)
            h(i, j) += model.positionTable()(i, j);
    for (size_t l = 0; l < cfg.layers; ++l)
        h = int8Block(*model.blocks()[l], plan.blocks[l], h, l,
                      /*causal=*/true);
    const U8Tensor hq = quantizeU8(h, plan.final_scale);
    LinearLayer &head = model.lmHead();
    return int8MatmulBT(hq, plan.head,
                        head.hasBias() ? &head.bias().value : nullptr);
}

void
Int8KvCache::append(const float *k_row, const float *v_row, size_t d,
                    size_t n_heads)
{
    DOTA_ASSERT(len == 0 || (dim == d && heads == n_heads),
                "KV cache shape changed mid-stream");
    dim = d;
    heads = n_heads;
    const size_t dh = d / n_heads;
    const float k_inv =
        (std::isfinite(k_scale) && k_scale > 0.0f) ? 1.0f / k_scale : 1.0f;
    const float v_inv =
        (std::isfinite(v_scale) && v_scale > 0.0f) ? 1.0f / v_scale : 1.0f;
    auto roundS8 = [](float x) {
        if (std::isnan(x))
            return 0;
        if (x >= 127.0f)
            return 127;
        if (x <= -127.0f)
            return -127;
        return static_cast<int>(std::lround(x));
    };
    k_codes.reserve(k_codes.size() + d);
    v_codes.reserve(v_codes.size() + d);
    for (size_t c = 0; c < d; ++c) {
        k_codes.push_back(static_cast<int8_t>(roundS8(k_row[c] * k_inv)));
        v_codes.push_back(static_cast<int8_t>(roundS8(v_row[c] * v_inv)));
    }
    const int8_t *krow = k_codes.data() + len * d;
    for (size_t h = 0; h < n_heads; ++h) {
        int32_t sum = 0;
        for (size_t c = 0; c < dh; ++c)
            sum += krow[h * dh + c];
        k_head_sums.push_back(sum);
    }
    ++len;
}

namespace {

/** One int8 encoder block, incrementally (cf. blockStep, decode.cpp). */
Matrix
int8BlockStep(EncoderBlock &blk, const Int8BlockPlan &bp,
              const Matrix &x_row, Int8KvCache &cache)
{
    MultiHeadAttention &attn = blk.attention();
    const size_t dh = attn.headDim();
    const size_t heads = attn.heads();
    const size_t d = heads * dh;

    const U8Tensor xq = quantizeU8(x_row, bp.x_scale);
    const Matrix q = int8MatmulBT(xq, bp.wq);
    const Matrix k_new = int8MatmulBT(xq, bp.wk);
    const Matrix v_new = int8MatmulBT(xq, bp.wv);
    cache.k_scale = bp.k_scale;
    cache.v_scale = bp.v_scale;
    cache.append(k_new.row(0), v_new.row(0), d, heads);

    const size_t t = cache.len;
    const U8Tensor qq = quantizeU8(q, bp.q_scale);
    Matrix z(1, d);
    std::vector<int32_t> scores(t);
    std::vector<uint8_t> probs(t);
    std::vector<uint32_t> scratch(t);
    std::vector<int32_t> acc(dh);
    const auto &kt = activeGemmKernels();
    for (size_t h = 0; h < heads; ++h) {
        const size_t off = h * dh;
        // Scores of the new query against all cached keys of this head:
        // same codes, same compensation, same s32 sums as the full-
        // sequence int8 forward's last row.
        const uint8_t *qrow = qq.codes.data() + off;
        for (size_t j = 0; j < t; ++j) {
            const int32_t raw = kt.int8Dot(
                qrow, cache.k_codes.data() + j * d + off, dh);
            scores[j] =
                raw - kU8ZeroPoint * cache.k_head_sums[j * heads + h];
        }
        bp.softmax.softmaxRow(scores.data(), t, nullptr, probs.data(),
                              scratch);
        std::fill(acc.begin(), acc.end(), 0);
        for (size_t j = 0; j < t; ++j) {
            const int32_t w = probs[j];
            if (w == 0)
                continue;
            const int8_t *vrow = cache.v_codes.data() + j * d + off;
            for (size_t c = 0; c < dh; ++c)
                acc[c] += w * static_cast<int32_t>(vrow[c]);
        }
        const float out_scale = bp.softmax.probScale() * bp.v_scale;
        for (size_t c = 0; c < dh; ++c)
            z(0, off + c) = static_cast<float>(acc[c]) * out_scale;
    }

    const U8Tensor zq = quantizeU8(z, bp.z_scale);
    const Matrix a = int8MatmulBT(zq, bp.wo);
    Matrix mean, rstd;
    const Matrix h1 = layerNorm(add(x_row, a), blk.ln1().gamma(),
                                blk.ln1().beta(), mean, rstd);
    const U8Tensor h1q = quantizeU8(h1, bp.h1_scale);
    const Matrix pre =
        int8MatmulBT(h1q, bp.fc1, &blk.fc1().bias().value);
    const Matrix hidden =
        blk.activation() == Activation::ReLU ? relu(pre) : gelu(pre);
    const U8Tensor hq = quantizeU8(hidden, bp.hidden_scale);
    const Matrix f = int8MatmulBT(hq, bp.fc2, &blk.fc2().bias().value);
    return layerNorm(add(h1, f), blk.ln2().gamma(), blk.ln2().beta(),
                     mean, rstd);
}

} // namespace

Matrix
int8DecodeStep(CausalLM &model, const Int8Plan &plan,
               Int8DecodeState &state, int token)
{
    const TransformerConfig &cfg = model.config();
    DOTA_ASSERT(plan.blocks.size() == cfg.layers,
                "plan covers {} layers, model has {}", plan.blocks.size(),
                cfg.layers);
    if (state.layers.size() != cfg.layers)
        state.reset(cfg.layers);
    DOTA_ASSERT(state.position < cfg.max_seq,
                "decode position {} exceeds max_seq {}", state.position,
                cfg.max_seq);

    Matrix h = model.tokenEmbedding().forward({token});
    for (size_t c = 0; c < cfg.dim; ++c)
        h(0, c) += model.positionTable()(state.position, c);
    for (size_t l = 0; l < cfg.layers; ++l)
        h = int8BlockStep(*model.blocks()[l], plan.blocks[l], h,
                          state.layers[l]);
    ++state.position;
    const U8Tensor hq = quantizeU8(h, plan.final_scale);
    LinearLayer &head = model.lmHead();
    return int8MatmulBT(hq, plan.head,
                        head.hasBias() ? &head.bias().value : nullptr);
}

std::vector<int>
int8Generate(CausalLM &model, const Int8Plan &plan,
             const std::vector<int> &prefix, size_t steps,
             double temperature, uint64_t seed)
{
    DOTA_ASSERT(!prefix.empty(), "generation needs a non-empty prefix");
    Int8DecodeState state;
    state.reset(model.config().layers);
    Matrix logits;
    for (int tok : prefix)
        logits = int8DecodeStep(model, plan, state, tok);

    Rng rng(seed);
    std::vector<int> out;
    out.reserve(steps);
    for (size_t s = 0; s < steps; ++s) {
        int next;
        if (temperature <= 0.0) {
            next = rowArgmax(logits)[0];
        } else {
            Matrix scaled =
                scale(logits, static_cast<float>(1.0 / temperature));
            const Matrix probs = rowSoftmax(scaled);
            const double u = rng.uniform();
            double acc = 0.0;
            next = static_cast<int>(probs.cols()) - 1;
            for (size_t c = 0; c < probs.cols(); ++c) {
                acc += probs(0, c);
                if (u < acc) {
                    next = static_cast<int>(c);
                    break;
                }
            }
        }
        out.push_back(next);
        if (state.position >= model.config().max_seq)
            break;
        logits = int8DecodeStep(model, plan, state, next);
    }
    return out;
}

} // namespace dota
