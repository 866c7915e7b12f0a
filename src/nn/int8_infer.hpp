/**
 * @file
 * Integer-only int8 inference path (DESIGN.md §16): per-tensor symmetric
 * calibration over a trained fp32 model, a quantized execution plan, and
 * full-sequence / incremental-decode forwards.
 *
 * Each is an instance of the one block skeleton (nn/encoder.hpp). Its
 * int8 linear policy quantizes every GEMM's A-side onto the u8 grid at a
 * calibrated scale and runs the u8 x s8 kernels of tensor/int8_gemm.hpp
 * against s8 W^T codes, bias in the epilogue; its attention stages run
 * ITA-style integer softmax between the s32 scores and A*V. LayerNorm,
 * residual adds and activations stay fp32: they are O(n*d) next to the
 * GEMMs and attention, and float keeps them accurate.
 *
 * Determinism contract: all scales are fixed at calibration time, every
 * integer GEMM is exact (tensor/int8_gemm.hpp), and the fp32 glue is
 * elementwise/per-row. Outputs are therefore bit-identical across
 * SIMD ISAs and DOTA_THREADS values, and the incremental decode path
 * reproduces the full-sequence forward's rows exactly — a stronger
 * contract than the fp path, where only matched reduction orders hold
 * it together.
 */
#pragma once

#include <vector>

#include "nn/decode.hpp"
#include "tensor/int8_gemm.hpp"
#include "tensor/int_softmax.hpp"

namespace dota {

/** Calibrated max |x| per quantization site of one block. */
struct Int8LayerRanges
{
    float x = 0.0f;      ///< block input (Wq/Wk/Wv GEMM A-side)
    float q = 0.0f;      ///< projected queries (u8 grid)
    float k = 0.0f;      ///< projected keys (s8 grid)
    float v = 0.0f;      ///< projected values (s8 grid)
    float z = 0.0f;      ///< concatenated head outputs (Wo A-side)
    float h1 = 0.0f;     ///< post-LN1 (FC1 A-side)
    float hidden = 0.0f; ///< post-activation (FC2 A-side)
};

/** Max |x| statistics from a calibration pass over a trained fp model. */
struct Int8Calibration
{
    float input = 0.0f;   ///< input-projection / first-block A-side
    float final_h = 0.0f; ///< head-GEMM A-side (pooled / last hidden)
    std::vector<Int8LayerRanges> layers;
};

/**
 * Run @p samples (token feature matrices) through the classifier in
 * fp32, recording max |x| at every quantization site.
 */
Int8Calibration calibrateClassifier(TransformerClassifier &model,
                                    const std::vector<Matrix> &samples);

/** LM calibration over token-id sequences (causal attention). */
Int8Calibration calibrateLM(CausalLM &model,
                            const std::vector<std::vector<int>> &samples);

/** One block's quantized weights, activation scales and softmax LUT. */
struct Int8BlockPlan
{
    Int8Tensor wq, wk, wv, wo; ///< d x d weights as s8 W^T codes
    Int8Tensor fc1, fc2;       ///< FFN weights as s8 W^T codes
    float x_scale = 1.0f;      ///< u8 grid (qmax 63)
    float q_scale = 1.0f;      ///< u8 grid
    float k_scale = 1.0f;      ///< s8 grid (qmax 127)
    float v_scale = 1.0f;      ///< s8 grid
    float z_scale = 1.0f;      ///< u8 grid
    float h1_scale = 1.0f;     ///< u8 grid
    float hidden_scale = 1.0f; ///< u8 grid
    IntSoftmaxLut softmax;     ///< built from q_scale*k_scale/sqrt(dh)
};

/**
 * Quantized execution plan: everything int8Forward needs besides the
 * fp32 model itself (which still supplies LayerNorm parameters, biases
 * and embeddings). Built once after calibration; scales never change
 * afterwards (the determinism contract above).
 */
struct Int8Plan
{
    Int8Tensor input;  ///< classifier input projection (empty for LM)
    Int8Tensor head;   ///< classifier head / LM head, s8 W^T codes
    float input_scale = 1.0f;   ///< u8 grid for the first GEMM's A-side
    float final_scale = 1.0f;   ///< u8 grid for the head GEMM's A-side
    std::vector<Int8BlockPlan> blocks;
};

/** Quantize a trained classifier against its calibration. */
Int8Plan quantizeClassifier(TransformerClassifier &model,
                            const Int8Calibration &calib);

/** Quantize a trained LM against its calibration. */
Int8Plan quantizeLM(CausalLM &model, const Int8Calibration &calib);

/**
 * Int8 classifier forward; returns logits (1 x classes). Honors an
 * installed attention hook exactly like the fp path: beginLayer /
 * observeQK see the int8-computed fp activations, selectMask gates the
 * integer softmax (so DOTA-style detectors drive sparsity on the
 * integer path too), and observeScores receives dequantized raw scores
 * when the hook wants them.
 */
Matrix int8Forward(TransformerClassifier &model, const Int8Plan &plan,
                   const Matrix &features);

/** Int8 LM forward over token ids; returns logits (n x vocab). */
Matrix int8Forward(CausalLM &model, const Int8Plan &plan,
                   const std::vector<int> &ids);

/** Per-layer integer KV cache for incremental int8 decoding. */
struct Int8KvCache
{
    Int8Tensor k; ///< t x dim s8 codes at the calibrated K scale
    Int8Tensor v; ///< t x dim s8 codes at the calibrated V scale
    size_t heads = 0;
    /**
     * Per-position, per-head sums of K codes (t x heads): zero-point
     * compensation for the u8 query x s8 key score dot needs the sum
     * over exactly the head's slice of the row.
     */
    std::vector<int32_t> k_head_sums;

    /** Quantize and append one fp K/V row pair (amortized O(dim)). */
    void append(const float *k_row, const float *v_row, size_t dim,
                size_t heads);
};

/** Decoding state for the int8 path. */
using Int8DecodeState = DecodeSession<Int8KvCache>;

/**
 * Feed one token through the int8 LM incrementally; returns logits
 * (1 x vocab). Bit-identical to row `position` of the full-sequence
 * int8Forward (static scales + exact integer GEMMs — see the header
 * comment).
 */
Matrix int8DecodeStep(CausalLM &model, const Int8Plan &plan,
                      Int8DecodeState &state, int token);

/**
 * Autoregressive int8 generation: greedy at temperature <= 0, seeded
 * softmax sampling otherwise (same policy as the fp generate()).
 */
std::vector<int> int8Generate(CausalLM &model, const Int8Plan &plan,
                              const std::vector<int> &prefix, size_t steps,
                              double temperature = 0.0, uint64_t seed = 1);

} // namespace dota
