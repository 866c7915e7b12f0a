/**
 * @file
 * Implementation of the int8 inference path: calibration, plan
 * quantization, full-sequence and incremental forwards.
 */
#include "nn/int8_infer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/attention_backend.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace dota {

namespace {

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
 * Calibration's linear policy: the block's fp32 GEMMs, recording max |x|
 * at the seven int8 quantization sites (Int8LayerRanges).
 */
BlockLinear
rangeObserver(EncoderBlock &blk, Int8LayerRanges &r)
{
    return [&blk, &r](BlockGemm g, const Matrix &a) {
        // Per BlockGemm (Q, K, V, Wo, Fc1, Fc2): its A-side and output.
        float *const in[] = {&r.x, nullptr, nullptr, &r.z, &r.h1, &r.hidden};
        float *const out[] = {&r.q, &r.k, &r.v, nullptr, nullptr, nullptr};
        Matrix y = blk.gemm(g, a);
        const auto i = static_cast<size_t>(g);
        if (in[i])
            observeRange(*in[i], a);
        if (out[i])
            observeRange(*out[i], y);
        return y;
    };
}

/** A model-level int8 GEMM: quantize at @p scale, bias in the epilogue. */
Matrix
int8Gemm(const Matrix &a, float scale, const Int8Tensor &w, LinearLayer &layer)
{
    return int8MatmulBT(quantizeU8(a, scale), w,
                        layer.hasBias() ? &layer.bias().value : nullptr);
}

/**
 * The int8 linear policy: block plan @p bp's GEMMs, each quantizing its
 * A-side at the calibrated scale (the block input once, at Q).
 */
BlockLinear
int8Linear(EncoderBlock &blk, const Int8BlockPlan &bp)
{
    return [&blk, &bp, xq = U8Tensor()](BlockGemm g,
                                        const Matrix &a) mutable {
        if (g == BlockGemm::Fc1 || g == BlockGemm::Fc2)
            return g == BlockGemm::Fc1
                       ? int8Gemm(a, bp.h1_scale, bp.fc1, blk.fc1())
                       : int8Gemm(a, bp.hidden_scale, bp.fc2, blk.fc2());
        if (g == BlockGemm::Wo)
            return int8MatmulBT(quantizeU8(a, bp.z_scale), bp.wo);
        if (g == BlockGemm::Q)
            xq = quantizeU8(a, bp.x_scale);
        const Int8Tensor *w[] = {&bp.wq, &bp.wk, &bp.wv};
        return int8MatmulBT(xq, *w[static_cast<size_t>(g)]);
    };
}

/**
 * Calibration's attention stage: the hook-free head loop on the dense
 * backend's head, whatever the hook, DOTA_ATTN or setForceDense say.
 */
Matrix
denseHeads(const MultiHeadAttention &attn, const Matrix &x, const Matrix &q,
           const Matrix &k, const Matrix &v)
{
    AttnHeadProblem p;
    p.scale = 1.0f / std::sqrt(static_cast<float>(attn.headDim()));
    p.causal = attn.causal();
    const AttentionBackend &dense = attentionBackend(AttnBackendKind::Dense);
    return attn.headLoop(x, q, k, v, nullptr,
                         [&](size_t, const Matrix &qh, const Matrix &kh,
                             const Matrix &vh, Matrix &) {
                             p.q = &qh;
                             p.k = &kh;
                             p.v = &vh;
                             return dense.runHead(p).z;
                         });
}

/**
 * The int8 full-sequence attention stage: the head loop under the
 * block's hook, int8AttentionHead on the plan-quantized slices.
 * selectMask gates the integer softmax exactly as it gates the fp path,
 * so detector-driven sparsity composes with the integer datapath.
 */
Matrix
int8Heads(MultiHeadAttention &attn, const Int8BlockPlan &bp,
          const Matrix &x, const Matrix &q, const Matrix &k, const Matrix &v)
{
    AttentionHook *hook = attn.hook();
    const size_t n = x.rows();
    std::vector<int32_t> raw;
    return attn.headLoop(x, q, k, v, hook, [&](size_t h, const Matrix &qh,
                                               const Matrix &kh,
                                               const Matrix &vh,
                                               Matrix &mask) {
        const Matrix *keep = attn.keepMask(mask, hook != nullptr, n);
        const U8Tensor qq = quantizeU8(qh, bp.q_scale);
        const Int8Tensor kk = quantizeS8(kh, bp.k_scale);
        const Int8Tensor vt = quantizeS8Transposed(vh, bp.v_scale);

        const bool observe = hook && hook->wantsFullScores();
        Matrix zh = int8AttentionHead(qq, kk, vt, bp.softmax, keep,
                                      attn.causal(), observe ? &raw : nullptr);
        if (observe) {
            // Estimation-loss hooks observe the dequantized raw scores
            // (the integer path's view of S = QK^T).
            Matrix s(n, n);
            const float ss = qq.scale * kk.scale;
            for (size_t i = 0; i < s.size(); ++i)
                s.data()[i] = static_cast<float>(raw[i]) * ss;
            hook->observeScores(attn.layer(), h, s);
        }
        return zh;
    });
}

/**
 * The int8 decode attention stage: one new token against the layer's
 * integer KV cache — the same codes, compensation and s32 sums as the
 * matching row of the full-sequence int8 head.
 */
Matrix
int8KvStep(Int8KvCache &cache, size_t heads, const Int8BlockPlan &bp,
           const Matrix &, const Matrix &q, const Matrix &k, const Matrix &v)
{
    const size_t d = q.cols();
    const size_t dh = d / heads;
    cache.k.scale = bp.k_scale;
    cache.v.scale = bp.v_scale;
    cache.append(k.row(0), v.row(0), d, heads);

    const size_t t = cache.k.rows;
    const U8Tensor qq = quantizeU8(q, bp.q_scale);
    Matrix z(1, d);
    std::vector<int32_t> scores(t);
    std::vector<uint8_t> probs(t);
    std::vector<uint32_t> scratch(t);
    std::vector<int32_t> acc(dh);
    const auto &kt = activeGemmKernels();
    const float out_scale = bp.softmax.probScale() * bp.v_scale;
    for (size_t h = 0; h < heads; ++h) {
        const size_t off = h * dh;
        const uint8_t *qrow = qq.codes.data() + off;
        for (size_t j = 0; j < t; ++j) {
            const int32_t raw =
                kt.int8Dot(qrow, cache.k.row(j) + off, dh);
            scores[j] = raw - kU8ZeroPoint * cache.k_head_sums[j * heads + h];
        }
        bp.softmax.softmaxRow(scores.data(), t, nullptr, probs.data(),
                              scratch);
        std::fill(acc.begin(), acc.end(), 0);
        for (size_t j = 0; j < t; ++j) {
            const int32_t w = probs[j];
            if (w == 0)
                continue;
            const int8_t *vrow = cache.v.row(j) + off;
            for (size_t c = 0; c < dh; ++c)
                acc[c] += w * static_cast<int32_t>(vrow[c]);
        }
        for (size_t c = 0; c < dh; ++c)
            z(0, off + c) = static_cast<float>(acc[c]) * out_scale;
    }
    return z;
}

/** s8 W^T codes of a weight at its own symmetric scale. */
Int8Tensor
quantizeWeight(const Matrix &w)
{
    return quantizeS8Transposed(w, chooseSymmetricScale(w, 8).scale);
}

/** Quantize one block's weights and freeze its activation scales. */
Int8BlockPlan
buildBlockPlan(EncoderBlock &blk, const Int8LayerRanges &r)
{
    MultiHeadAttention &attn = blk.attention();
    Int8BlockPlan bp;
    bp.wq = quantizeWeight(attn.wq());
    bp.wk = quantizeWeight(attn.wk());
    bp.wv = quantizeWeight(attn.wv());
    bp.wo = quantizeWeight(attn.wo());
    bp.fc1 = quantizeWeight(blk.fc1().weight().value);
    bp.fc2 = quantizeWeight(blk.fc2().weight().value);
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

/** The plan parts every model shares: the blocks and the head. */
Int8Plan
quantizeBlocks(std::vector<std::unique_ptr<EncoderBlock>> &blocks,
               LinearLayer &head, const Int8Calibration &calib)
{
    DOTA_ASSERT(calib.layers.size() == blocks.size(),
                "calibration covers {} layers, model has {}",
                calib.layers.size(), blocks.size());
    Int8Plan plan;
    plan.head = quantizeWeight(head.weight().value);
    plan.final_scale = symmetricScaleFromMaxAbs(calib.final_h, kU8ActQmax);
    for (size_t l = 0; l < blocks.size(); ++l)
        plan.blocks.push_back(buildBlockPlan(*blocks[l], calib.layers[l]));
    return plan;
}

/**
 * The int8 instance of the block skeleton: the full-sequence head loop,
 * or with @p state a decode step against its KV caches.
 */
BlockPass
int8Blocks(const TransformerConfig &cfg, const Int8Plan &plan,
           Int8DecodeState *state = nullptr)
{
    DOTA_ASSERT(plan.blocks.size() == cfg.layers,
                "plan covers {} layers, model has {}", plan.blocks.size(),
                cfg.layers);
    return [&plan, state](size_t l, EncoderBlock &blk, const Matrix &h) {
        const Int8BlockPlan &bp = plan.blocks[l];
        MultiHeadAttention &attn = blk.attention();
        BlockAttention heads =
            std::bind_front(int8Heads, std::ref(attn), std::cref(bp));
        if (state)
            heads = std::bind_front(int8KvStep, std::ref(state->layers[l]),
                                    attn.heads(), std::cref(bp));
        return blk.forward(int8Linear(blk, bp), heads, h);
    };
}

/** The int8 head GEMM of @p plan on @p head's bias. */
LinearPass
int8Head(const Int8Plan &plan, LinearLayer &head)
{
    return [&plan, &head](const Matrix &h) {
        return int8Gemm(h, plan.final_scale, plan.head, head);
    };
}

/** Calibration's instance: fp32 with the range observer, dense heads. */
BlockPass
calibrationBlocks(Int8Calibration &calib)
{
    return [&calib](size_t l, EncoderBlock &blk, const Matrix &h) {
        const MultiHeadAttention &attn = blk.attention();
        return blk.forward(rangeObserver(blk, calib.layers[l]),
                           std::bind_front(denseHeads, std::cref(attn)), h);
    };
}

} // namespace

Int8Calibration
calibrateClassifier(TransformerClassifier &model,
                    const std::vector<Matrix> &samples)
{
    Int8Calibration calib;
    calib.layers.resize(model.config().layers);
    for (const Matrix &features : samples)
        model.run(
            features,
            [&](const Matrix &f) {
                observeRange(calib.input, f);
                return model.inputLayer().forward(f);
            },
            calibrationBlocks(calib),
            [&](const Matrix &pooled) {
                observeRange(calib.final_h, pooled);
                return Matrix();
            });
    return calib;
}

Int8Calibration
calibrateLM(CausalLM &model,
            const std::vector<std::vector<int>> &samples)
{
    Int8Calibration calib;
    calib.layers.resize(model.config().layers);
    for (const std::vector<int> &ids : samples)
        model.run(ids, 0, calibrationBlocks(calib), [&](const Matrix &h) {
            observeRange(calib.final_h, h);
            return Matrix();
        });
    return calib;
}

Int8Plan
quantizeClassifier(TransformerClassifier &model,
                   const Int8Calibration &calib)
{
    Int8Plan plan = quantizeBlocks(model.blocks(), model.headLayer(), calib);
    plan.input = quantizeWeight(model.inputLayer().weight().value);
    plan.input_scale = symmetricScaleFromMaxAbs(calib.input, kU8ActQmax);
    return plan;
}

Int8Plan
quantizeLM(CausalLM &model, const Int8Calibration &calib)
{
    return quantizeBlocks(model.blocks(), model.lmHead(), calib);
}

Matrix
int8Forward(TransformerClassifier &model, const Int8Plan &plan,
            const Matrix &features)
{
    return model.run(
        features,
        [&](const Matrix &f) {
            return int8Gemm(f, plan.input_scale, plan.input,
                            model.inputLayer());
        },
        int8Blocks(model.config(), plan), int8Head(plan, model.headLayer()));
}

Matrix
int8Forward(CausalLM &model, const Int8Plan &plan,
            const std::vector<int> &ids)
{
    return model.run(ids, 0, int8Blocks(model.config(), plan),
                     int8Head(plan, model.lmHead()));
}

void
Int8KvCache::append(const float *k_row, const float *v_row, size_t d,
                    size_t n_heads)
{
    DOTA_ASSERT(k.empty() || heads == n_heads,
                "KV cache shape changed mid-stream");
    heads = n_heads;
    k.appendRow(k_row, d);
    v.appendRow(v_row, d);
    const int8_t *krow = k.row(k.rows - 1);
    const size_t dh = d / n_heads;
    for (size_t h = 0; h < n_heads; ++h) {
        int32_t sum = 0;
        for (size_t c = 0; c < dh; ++c)
            sum += krow[h * dh + c];
        k_head_sums.push_back(sum);
    }
}

Matrix
int8DecodeStep(CausalLM &model, const Int8Plan &plan,
               Int8DecodeState &state, int token)
{
    const BlockPass blocks = int8Blocks(model.config(), plan, &state);
    return model.run({token}, state.advance(model.config()), blocks,
                     int8Head(plan, model.lmHead()));
}

std::vector<int>
int8Generate(CausalLM &model, const Int8Plan &plan,
             const std::vector<int> &prefix, size_t steps,
             double temperature, uint64_t seed)
{
    Int8DecodeState state;
    return generateWith(
        [&](int tok) { return int8DecodeStep(model, plan, state, tok); },
        prefix, steps, model.config().max_seq, temperature, seed);
}

} // namespace dota
