/**
 * @file
 * Implementation of the encoder block: the one block skeleton and its
 * fp32 linear policy.
 */
#include "nn/encoder.hpp"

namespace dota {

EncoderBlock::EncoderBlock(const std::string &name, size_t layer, size_t dim,
                           size_t heads, size_t ffn_dim, Rng &rng,
                           Activation act, bool causal)
    : attn_(name + ".attn", layer, dim, heads, rng, causal),
      ln1_(name + ".ln1", dim), fc1_(name + ".fc1", dim, ffn_dim, rng),
      fc2_(name + ".fc2", ffn_dim, dim, rng), ln2_(name + ".ln2", dim),
      act_(act)
{}

Matrix
EncoderBlock::gemm(BlockGemm g, const Matrix &a, bool keep)
{
    if (g == BlockGemm::Fc1 || g == BlockGemm::Fc2)
        return (g == BlockGemm::Fc1 ? fc1_ : fc2_).forward(a, keep);
    const Matrix *w[] = {&attn_.wq(), &attn_.wk(), &attn_.wv(), &attn_.wo()};
    return matmul(a, *w[static_cast<size_t>(g)]);
}

Matrix
EncoderBlock::forward(const Matrix &x)
{
    const auto lin = [this](BlockGemm g, const Matrix &a) {
        return gemm(g, a, /*keep=*/true);
    };
    return run(lin, std::bind_front(&MultiHeadAttention::attend, &attn_), x,
               /*keep=*/true);
}

Matrix
EncoderBlock::forward(const BlockLinear &lin, const BlockAttention &attn,
                      const Matrix &x)
{
    return run(lin, attn, x, /*keep=*/false);
}

Matrix
EncoderBlock::run(const BlockLinear &lin, const BlockAttention &attn,
                  const Matrix &x, bool keep)
{
    // Multi-Head Attention stage with residual + LayerNorm.
    Matrix q = lin(BlockGemm::Q, x);
    Matrix k = lin(BlockGemm::K, x);
    Matrix v = lin(BlockGemm::V, x);
    const Matrix z = attn(x, std::move(q), std::move(k), std::move(v));
    const Matrix h1 = ln1_.forward(add(x, lin(BlockGemm::Wo, z)), keep);

    // FFN stage with residual + LayerNorm.
    Matrix pre = lin(BlockGemm::Fc1, h1);
    const Matrix hidden = act_ == Activation::ReLU ? relu(pre) : gelu(pre);
    if (keep)
        ffn_pre_act_ = std::move(pre);
    const Matrix f = lin(BlockGemm::Fc2, hidden);
    return ln2_.forward(add(h1, f), keep);
}

Matrix
EncoderBlock::backward(const Matrix &dy)
{
    // ln2(h1 + f)
    const Matrix d_sum2 = ln2_.backward(dy);

    // f = fc2(act(fc1(h1)))
    const Matrix d_hidden = fc2_.backward(d_sum2);
    const Matrix d_pre = act_ == Activation::ReLU
                             ? reluBackward(ffn_pre_act_, d_hidden)
                             : geluBackward(ffn_pre_act_, d_hidden);
    Matrix dh1 = fc1_.backward(d_pre);
    dh1 = add(dh1, d_sum2); // residual path

    // ln1(x + a)
    const Matrix d_sum1 = ln1_.backward(dh1);
    Matrix dx = attn_.backward(d_sum1);
    dx = add(dx, d_sum1); // residual path
    return dx;
}

void
EncoderBlock::collectParams(std::vector<Parameter *> &out)
{
    attn_.collectParams(out);
    ln1_.collectParams(out);
    fc1_.collectParams(out);
    fc2_.collectParams(out);
    ln2_.collectParams(out);
}

} // namespace dota
