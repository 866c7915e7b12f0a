/**
 * @file
 * Implementation of the end-to-end transformer models.
 */
#include "nn/transformer.hpp"

namespace dota {

void
BlockStack::setHook(AttentionHook *hook)
{
    for (auto &blk : blocks_)
        blk->attention().setHook(hook);
}

void
BlockStack::setForceDense(bool force)
{
    for (auto &blk : blocks_)
        blk->attention().setForceDense(force);
}

bool
BlockStack::hasHook() const
{
    for (const auto &blk : blocks_)
        if (blk->attention().hook())
            return true;
    return false;
}

void
BlockStack::buildBlocks(const char *prefix, bool causal)
{
    blocks_.reserve(cfg_.layers);
    for (size_t l = 0; l < cfg_.layers; ++l)
        blocks_.push_back(std::make_unique<EncoderBlock>(
            format("{}{}", prefix, l), l, cfg_.dim, cfg_.heads, cfg_.ffn_dim,
            init_rng_, cfg_.act, causal));
}

TransformerClassifier::TransformerClassifier(const TransformerConfig &cfg)
    : BlockStack(cfg), input_("input", cfg.in_dim, cfg.dim, init_rng_),
      head_("head", cfg.dim, cfg.classes, init_rng_)
{
    buildBlocks("enc", /*causal=*/false);
}

Matrix
TransformerClassifier::forward(const Matrix &features)
{
    last_n_ = features.rows();
    return run(
        features, [&](const Matrix &f) { return input_.forward(f); },
        [](size_t, EncoderBlock &blk, const Matrix &h) {
            return blk.forward(h);
        },
        [&](const Matrix &pooled) { return head_.forward(pooled); });
}

Matrix
TransformerClassifier::run(const Matrix &features, const LinearPass &input,
                           const BlockPass &block, const LinearPass &head)
{
    Matrix h = input(features);
    for (size_t l = 0; l < blocks_.size(); ++l)
        h = block(l, *blocks_[l], h);
    // Mean pooling over tokens.
    Matrix pooled(1, cfg_.dim);
    const float inv = 1.0f / static_cast<float>(h.rows());
    for (size_t i = 0; i < h.rows(); ++i)
        for (size_t j = 0; j < h.cols(); ++j)
            pooled(0, j) += h(i, j) * inv;
    return head(pooled);
}

void
TransformerClassifier::backward(const Matrix &dlogits)
{
    const Matrix dpooled = head_.backward(dlogits);
    // Broadcast pooling gradient back over tokens.
    Matrix dh(last_n_, cfg_.dim);
    const float inv = 1.0f / static_cast<float>(last_n_);
    for (size_t i = 0; i < last_n_; ++i)
        for (size_t j = 0; j < cfg_.dim; ++j)
            dh(i, j) = dpooled(0, j) * inv;
    for (size_t l = blocks_.size(); l-- > 0;)
        dh = blocks_[l]->backward(dh);
    input_.backward(dh);
}

void
TransformerClassifier::collectParams(std::vector<Parameter *> &out)
{
    input_.collectParams(out);
    for (auto &blk : blocks_)
        blk->collectParams(out);
    head_.collectParams(out);
}

CausalLM::CausalLM(const TransformerConfig &cfg)
    : BlockStack(cfg), tok_("tok", cfg.vocab, cfg.dim, init_rng_),
      pos_("pos", Matrix::randomNormal(cfg.max_seq, cfg.dim, init_rng_,
                                       0.0f, 0.02f)),
      head_("lm_head", cfg.dim, cfg.vocab, init_rng_, /*bias=*/false)
{
    buildBlocks("dec", /*causal=*/true);
}

Matrix
CausalLM::forward(const std::vector<int> &ids)
{
    last_n_ = ids.size();
    return run(
        ids, 0,
        [](size_t, EncoderBlock &blk, const Matrix &h) {
            return blk.forward(h);
        },
        [&](const Matrix &h) { return head_.forward(h); });
}

Matrix
CausalLM::run(const std::vector<int> &ids, size_t pos,
              const BlockPass &block, const LinearPass &head)
{
    DOTA_ASSERT(pos + ids.size() <= cfg_.max_seq,
                "sequence length {} exceeds max {}", pos + ids.size(),
                cfg_.max_seq);
    Matrix h = tok_.forward(ids);
    for (size_t i = 0; i < h.rows(); ++i)
        for (size_t j = 0; j < h.cols(); ++j)
            h(i, j) += pos_.value(pos + i, j);
    for (size_t l = 0; l < blocks_.size(); ++l)
        h = block(l, *blocks_[l], h);
    return head(h);
}

void
CausalLM::backward(const Matrix &dlogits)
{
    Matrix dh = head_.backward(dlogits);
    for (size_t l = blocks_.size(); l-- > 0;)
        dh = blocks_[l]->backward(dh);
    for (size_t i = 0; i < last_n_; ++i)
        for (size_t j = 0; j < cfg_.dim; ++j)
            pos_.grad(i, j) += dh(i, j);
    tok_.backward(dh);
}

double
CausalLM::lmLoss(const std::vector<int> &ids, bool train)
{
    const Matrix logits = forward(ids);
    // Position i predicts token i+1; last position is ignored.
    std::vector<int> targets(ids.size(), -1);
    for (size_t i = 0; i + 1 < ids.size(); ++i)
        targets[i] = ids[i + 1];
    Matrix dlogits;
    const double loss = softmaxCrossEntropy(logits, targets, dlogits);
    if (train)
        backward(dlogits);
    return loss;
}

void
CausalLM::collectParams(std::vector<Parameter *> &out)
{
    tok_.collectParams(out);
    out.push_back(&pos_);
    for (auto &blk : blocks_)
        blk->collectParams(out);
    head_.collectParams(out);
}

} // namespace dota
