/**
 * @file
 * The long-sequence language model shared by the prefill and decode
 * workloads, its input generator, and the forwarding hook that times
 * an attention hook's calls from outside.
 */
#pragma once

#include <cmath>
#include <cstring>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "detect/detector.hpp"
#include "nn/int8_infer.hpp"
#include "nn/transformer.hpp"

namespace perfbench {

/** Prompt/sequence length of prefill_long (and the model's max_seq). */
constexpr size_t kPrefillLen = 2048;

/** d=256, 4 heads of 64, 4 layers, ffn 1024, vocab 512 (fixed weights). */
inline dota::TransformerConfig
lmConfig()
{
    dota::TransformerConfig c;
    c.dim = 256;
    c.heads = 4;
    c.layers = 4;
    c.ffn_dim = 1024;
    c.vocab = 512;
    c.max_seq = kPrefillLen;
    c.seed = 1;
    return c;
}

/** @p n uniformly drawn token ids. */
inline std::vector<int>
randomTokens(dota::Rng &rng, size_t n, size_t vocab)
{
    std::vector<int> ids(n);
    for (int &t : ids)
        t = static_cast<int>(rng.next() % vocab);
    return ids;
}

/** Int8 plan calibrated on two seeded 256-token sequences. */
inline dota::Int8Plan
calibratedPlan(dota::CausalLM &model, dota::Rng &rng)
{
    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 2; ++i)
        calib.push_back(randomTokens(rng, 256, model.config().vocab));
    return dota::quantizeLM(model, dota::calibrateLM(model, calib));
}

inline uint64_t
fingerprint(const dota::Matrix &m, uint64_t h = 1469598103934665603ull)
{
    return fingerprint(m.data(), m.size() * sizeof(float), h);
}

inline bool
bitIdentical(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

inline bool
allFinite(const dota::Matrix &m)
{
    for (size_t i = 0; i < m.size(); ++i)
        if (!std::isfinite(m.data()[i]))
            return false;
    return true;
}

/**
 * Forwards every AttentionHook call to @p inner, recording a span for
 * each. Installed in place of the detector in traced runs; the traced
 * run checks that its outputs equal the untraced run's, so a method
 * this class fails to forward shows up as a failed check.
 */
class TimingHook : public dota::AttentionHook
{
  public:
    TimingHook(dota::AttentionHook &inner, Tracer &tr)
        : inner_(inner), tr_(tr)
    {}

    void beginLayer(size_t layer, const dota::Matrix &x) override
    {
        Tracer::Scope s(tr_, "detect.begin_layer");
        inner_.beginLayer(layer, x);
    }
    void observeQK(size_t layer, size_t head, const dota::Matrix &q,
                   const dota::Matrix &k) override
    {
        inner_.observeQK(layer, head, q, k);
    }
    dota::Matrix selectMask(size_t layer, size_t head, bool causal) override
    {
        Tracer::Scope s(tr_, "detect.select_mask");
        return inner_.selectMask(layer, head, causal);
    }
    void observeScores(size_t layer, size_t head,
                       const dota::Matrix &s_true) override
    {
        Tracer::Scope s(tr_, "detect.observe_scores");
        inner_.observeScores(layer, head, s_true);
    }
    bool wantsFullScores() const override { return inner_.wantsFullScores(); }
    dota::Matrix scoreGradient(size_t layer, size_t head) override
    {
        Tracer::Scope s(tr_, "detect.score_grad");
        return inner_.scoreGradient(layer, head);
    }

  private:
    dota::AttentionHook &inner_;
    Tracer &tr_;
};

} // namespace perfbench
