/**
 * @file
 * Transformer encoder block: the three-stage structure of Figure 2 /
 * Section 4.1 (Linear Transformation + Multi-Head Attention, then FFN),
 * with residual connections and layer normalization.
 *
 * The block is written once, as the skeleton QKV -> heads -> Wo ->
 * residual + LN1 -> FC1 -> act -> FC2 -> residual + LN2, run under a
 * linear policy (fp32 gemm(), or a frozen int8 plan in
 * nn/int8_infer.cpp) and an attention stage (nn/attention.hpp: a
 * full-sequence head loop, or a single-row step against a KV cache).
 * Training, calibration, the int8 forward and both decoders are its
 * instances (DESIGN.md §12, §16).
 */
#pragma once

#include <memory>

#include "nn/attention.hpp"
#include "nn/layer_norm.hpp"
#include "nn/linear.hpp"

namespace dota {

/** Activation used inside the FFN. */
enum class Activation { ReLU, GELU };

/** The GEMMs of a block, by output; the order indexes per-GEMM tables. */
enum class BlockGemm { Q, K, V, Wo, Fc1, Fc2 };

/**
 * Linear policy of the block skeleton: GEMM @p g, bias included, on
 * A-side @p a. The skeleton asks for Q, K and V first, in that order,
 * on the block input, so a policy may prepare that operand once at Q.
 */
using BlockLinear = std::function<Matrix(BlockGemm g, const Matrix &a)>;

/** One encoder (or, with causal attention, decoder) block. */
class EncoderBlock : public Module
{
  public:
    /**
     * @param name      parameter prefix
     * @param layer     layer index (reported to the attention hook)
     * @param dim       model dimension d
     * @param heads     attention head count
     * @param ffn_dim   hidden dimension of the FFN (paper uses 4d)
     * @param rng       weight initializer
     * @param act       FFN activation
     * @param causal    autoregressive attention (decoder processing)
     */
    EncoderBlock(const std::string &name, size_t layer, size_t dim,
                 size_t heads, size_t ffn_dim, Rng &rng,
                 Activation act = Activation::GELU, bool causal = false);

    /**
     * The skeleton under gemm() and MultiHeadAttention::attend (the
     * fp32 full-sequence forward), keeping what backward() reads.
     */
    Matrix forward(const Matrix &x);

    /** The skeleton under @p lin and @p attn, caching nothing. */
    Matrix forward(const BlockLinear &lin, const BlockAttention &attn,
                   const Matrix &x);

    /**
     * The fp32 linear policy: matmul + bias on this block's weights;
     * @p keep caches the FFN inputs for backward.
     */
    Matrix gemm(BlockGemm g, const Matrix &a, bool keep = false);

    Matrix backward(const Matrix &dy);

    void collectParams(std::vector<Parameter *> &out) override;

    MultiHeadAttention &attention() { return attn_; }
    const MultiHeadAttention &attention() const { return attn_; }

    /** FFN layers (the int8 plan reads them). */
    LinearLayer &fc1() { return fc1_; }
    LinearLayer &fc2() { return fc2_; }

  private:
    Matrix run(const BlockLinear &lin, const BlockAttention &attn,
               const Matrix &x, bool keep);

    MultiHeadAttention attn_;
    LayerNormLayer ln1_;
    LinearLayer fc1_;
    LinearLayer fc2_;
    LayerNormLayer ln2_;
    Activation act_;

    Matrix ffn_pre_act_; ///< fc1 output, cached for activation backward
};

} // namespace dota
