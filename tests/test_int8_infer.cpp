/**
 * @file
 * Tests for the integer-only inference path (nn/int8_infer.hpp): plan
 * quantization, full-sequence forward accuracy against the fp32 model,
 * the incremental-decode bit-identity contract, the hook protocol and
 * calibration contracts the shared block skeleton must keep, and the
 * int8 attention backend's legality rules and numerics.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "detect/detector.hpp"
#include "nn/attention_backend.hpp"
#include "nn/int8_infer.hpp"
#include "nn/transformer.hpp"
#include "tensor/ops.hpp"

namespace dota {
namespace {

TransformerConfig
classifierConfig()
{
    TransformerConfig cfg;
    cfg.in_dim = 12;
    cfg.dim = 32;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.ffn_dim = 64;
    cfg.classes = 5;
    cfg.max_seq = 32;
    cfg.seed = 3;
    return cfg;
}

TransformerConfig
lmConfig()
{
    TransformerConfig cfg;
    cfg.dim = 32;
    cfg.heads = 4;
    cfg.layers = 2;
    cfg.ffn_dim = 64;
    cfg.vocab = 48;
    cfg.max_seq = 64;
    cfg.seed = 7;
    return cfg;
}

std::vector<int>
randomIds(size_t n, int vocab, uint64_t seed)
{
    Rng rng(seed);
    std::vector<int> ids(n);
    for (auto &id : ids)
        id = static_cast<int>(rng.uniformInt(vocab));
    return ids;
}

/** Relative error of @p got against @p ref: mse / signal power. */
double
relMse(const Matrix &ref, const Matrix &got)
{
    return mse(ref, got) /
           (mse(ref, Matrix(ref.rows(), ref.cols())) + 1e-12);
}

TEST(Int8Infer, ClassifierTracksFp32Forward)
{
    TransformerClassifier model(classifierConfig());
    Rng rng(50);
    std::vector<Matrix> calib;
    for (int i = 0; i < 6; ++i)
        calib.push_back(Matrix::randomNormal(10, 12, rng));
    const Int8Plan plan =
        quantizeClassifier(model, calibrateClassifier(model, calib));
    ASSERT_EQ(plan.blocks.size(), 2u);
    ASSERT_FALSE(plan.input.empty());

    double worst = 0.0;
    for (int i = 0; i < 4; ++i) {
        const Matrix features = Matrix::randomNormal(10, 12, rng);
        const Matrix fp = model.forward(features);
        const Matrix i8 = int8Forward(model, plan, features);
        ASSERT_EQ(i8.rows(), fp.rows());
        ASSERT_EQ(i8.cols(), fp.cols());
        worst = std::max(worst, relMse(fp, i8));
    }
    // Int8 keeps the logits close to fp32 on calibrated inputs.
    EXPECT_LT(worst, 0.05);
}

TEST(Int8Infer, LmTracksFp32Forward)
{
    CausalLM model(lmConfig());
    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 6; ++i)
        calib.push_back(randomIds(24, 48, 60 + i));
    const Int8Plan plan = quantizeLM(model, calibrateLM(model, calib));
    ASSERT_TRUE(plan.input.empty()); // LM embeds tokens, no input GEMM

    const std::vector<int> ids = randomIds(24, 48, 77);
    const Matrix fp = model.forward(ids);
    const Matrix i8 = int8Forward(model, plan, ids);
    ASSERT_EQ(i8.rows(), fp.rows());
    ASSERT_EQ(i8.cols(), fp.cols());
    EXPECT_LT(relMse(fp, i8), 0.05);
}

TEST(Int8Infer, DecodeStepBitIdenticalToFullSequence)
{
    // The determinism contract of DESIGN.md §16: static scales + exact
    // integer GEMMs make the incremental decode reproduce row t of the
    // full-sequence forward *bit for bit* — EXPECT_EQ on floats.
    CausalLM model(lmConfig());
    std::vector<std::vector<int>> calib;
    for (int i = 0; i < 4; ++i)
        calib.push_back(randomIds(20, 48, 80 + i));
    const Int8Plan plan = quantizeLM(model, calibrateLM(model, calib));

    const std::vector<int> ids = randomIds(10, 48, 90);
    const Matrix full = int8Forward(model, plan, ids);

    Int8DecodeState state;
    state.reset(plan.blocks.size());
    for (size_t t = 0; t < ids.size(); ++t) {
        const Matrix step = int8DecodeStep(model, plan, state, ids[t]);
        ASSERT_EQ(step.rows(), 1u);
        ASSERT_EQ(step.cols(), full.cols());
        for (size_t j = 0; j < full.cols(); ++j)
            EXPECT_EQ(step(0, j), full(t, j))
                << "t=" << t << " j=" << j;
    }
}

TEST(Int8Infer, GenerateIsDeterministic)
{
    CausalLM model(lmConfig());
    std::vector<std::vector<int>> calib;
    calib.push_back(randomIds(20, 48, 95));
    const Int8Plan plan = quantizeLM(model, calibrateLM(model, calib));

    const std::vector<int> prefix{1, 2, 3};
    const std::vector<int> greedy_a = int8Generate(model, plan, prefix, 8);
    const std::vector<int> greedy_b = int8Generate(model, plan, prefix, 8);
    EXPECT_EQ(greedy_a, greedy_b);
    EXPECT_GE(greedy_a.size(), prefix.size());

    const std::vector<int> sampled_a =
        int8Generate(model, plan, prefix, 8, 0.8, 42);
    const std::vector<int> sampled_b =
        int8Generate(model, plan, prefix, 8, 0.8, 42);
    EXPECT_EQ(sampled_a, sampled_b);
}

TEST(Int8Infer, KvAppendGrowsGeometrically)
{
    // One append costs O(dim), not a copy of the whole cache: over 1024
    // appends the code storage moves only on geometric growth.
    const size_t d = 256, heads = 4;
    std::vector<float> k_row(d), v_row(d);
    for (size_t c = 0; c < d; ++c) {
        k_row[c] = 0.01f * static_cast<float>(c);
        v_row[c] = -0.02f * static_cast<float>(c);
    }
    Int8KvCache cache;
    const int8_t *prev = nullptr;
    size_t moves = 0;
    for (int t = 0; t < 1024; ++t) {
        cache.append(k_row.data(), v_row.data(), d, heads);
        moves += cache.k.codes.data() != prev;
        prev = cache.k.codes.data();
    }
    EXPECT_EQ(cache.k.rows, 1024u);
    EXPECT_EQ(cache.k_head_sums.size(), 1024u * heads);
    EXPECT_LT(moves, 32u);
}

TEST(Int8Infer, CalibrateLmRejectsOverlongSample)
{
    CausalLM model(lmConfig()); // max_seq 64
    EXPECT_DEATH(calibrateLM(model, {randomIds(65, 48, 5)}),
                 "sequence length 65 exceeds max 64");
}

/**
 * Records the hook protocol as (method, layer, head) triples. With
 * @p keep > 0 it masks each row to its last @p keep visible keys.
 */
class RecordingHook : public AttentionHook
{
  public:
    RecordingHook(bool full, size_t keep) : full_(full), keep_(keep) {}

    void
    beginLayer(size_t layer, const Matrix &x) override
    {
        calls.emplace_back("beginLayer", layer, SIZE_MAX);
        n_ = x.rows();
    }

    void
    observeQK(size_t layer, size_t head, const Matrix &,
              const Matrix &) override
    {
        calls.emplace_back("observeQK", layer, head);
    }

    Matrix
    selectMask(size_t layer, size_t head, bool causal) override
    {
        calls.emplace_back("selectMask", layer, head);
        if (keep_ == 0)
            return Matrix();
        Matrix m(n_, n_);
        for (size_t i = 0; i < n_; ++i)
            for (size_t j = 0; j < n_; ++j)
                if ((!causal || j <= i) && i < j + keep_)
                    m(i, j) = 1.0f;
        return m;
    }

    void
    observeScores(size_t layer, size_t head, const Matrix &s) override
    {
        calls.emplace_back("observeScores", layer, head);
        EXPECT_TRUE(full_) << "observeScores without wantsFullScores()";
        EXPECT_EQ(s.rows(), n_);
        EXPECT_EQ(s.cols(), n_);
    }

    bool wantsFullScores() const override { return full_; }
    Matrix scoreGradient(size_t, size_t) override { return Matrix(); }

    std::vector<std::tuple<std::string, size_t, size_t>> calls;

  private:
    bool full_;
    size_t keep_;
    size_t n_ = 0;
};

TEST(Int8Infer, HookProtocolMatchesFp32Forward)
{
    // The int8 forward drives an installed hook through the same call
    // sequence as the fp32 forward: a hook that wants full scores gets
    // observeScores with the n x n S of every head, and a masking
    // inference hook never does.
    ScopedAttnChoice pin(AttnChoice::Auto);
    CausalLM model(lmConfig());
    const Int8Plan plan =
        quantizeLM(model, calibrateLM(model, {randomIds(20, 48, 1)}));
    const std::vector<int> ids = randomIds(12, 48, 2);
    const size_t per_layer = 1 + 2 * lmConfig().heads;
    for (bool full : {true, false}) {
        RecordingHook fp(full, full ? 0 : 3), i8(full, full ? 0 : 3);
        model.setHook(&fp);
        model.forward(ids);
        model.setHook(&i8);
        int8Forward(model, plan, ids);
        model.setHook(nullptr);
        EXPECT_EQ(fp.calls, i8.calls) << (full ? "full" : "masked");
        const size_t scores = full ? lmConfig().heads : 0;
        EXPECT_EQ(i8.calls.size(), lmConfig().layers * (per_layer + scores));
    }
}

void
expectSameRanges(const Int8Calibration &a, const Int8Calibration &b,
                 const char *what)
{
    EXPECT_EQ(std::memcmp(&a.input, &b.input, sizeof(float)), 0) << what;
    EXPECT_EQ(std::memcmp(&a.final_h, &b.final_h, sizeof(float)), 0)
        << what;
    ASSERT_EQ(a.layers.size(), b.layers.size()) << what;
    for (size_t l = 0; l < a.layers.size(); ++l)
        EXPECT_EQ(std::memcmp(&a.layers[l], &b.layers[l],
                              sizeof(Int8LayerRanges)),
                  0)
            << what << " layer " << l;
}

TEST(Int8Infer, CalibrationIsHookFreeAndDensePinned)
{
    // Calibration ranges are a property of the fp32 model alone: an
    // installed detector and the attention-backend choice change no bit.
    TransformerClassifier clf(classifierConfig());
    CausalLM lm(lmConfig());
    Rng rng(51);
    const std::vector<Matrix> features{Matrix::randomNormal(10, 12, rng),
                                       Matrix::randomNormal(14, 12, rng)};
    const std::vector<std::vector<int>> ids{randomIds(20, 48, 3),
                                            randomIds(16, 48, 4)};
    const Int8Calibration clf_ref = calibrateClassifier(clf, features);
    const Int8Calibration lm_ref = calibrateLM(lm, ids);

    DetectorConfig dc;
    dc.train = false;
    DotaDetector clf_det(classifierConfig(), dc), lm_det(lmConfig(), dc);
    for (bool hooked : {false, true}) {
        clf.setHook(hooked ? &clf_det : nullptr);
        lm.setHook(hooked ? &lm_det : nullptr);
        for (AttnChoice c : {AttnChoice::Auto, AttnChoice::Streaming,
                             AttnChoice::Sparse, AttnChoice::Int8}) {
            ScopedAttnChoice pin(c);
            const std::string what = std::string(attnChoiceName(c)) +
                                     (hooked ? " with detector" : "");
            expectSameRanges(clf_ref, calibrateClassifier(clf, features),
                             what.c_str());
            expectSameRanges(lm_ref, calibrateLM(lm, ids), what.c_str());
        }
    }
    clf.setHook(nullptr);
    lm.setHook(nullptr);
}

// ---------------------------------------------------------------------
// Attention backend dispatch and numerics
// ---------------------------------------------------------------------

TEST(Int8Backend, ResolveLegality)
{
    const auto resolve = [](AttnChoice c, bool hook, bool wants_full,
                            bool force, bool mask, size_t n) {
        return resolveAttnBackend(c, hook, wants_full, force, mask, n);
    };
    // With a hook (inference) the int8 choice applies at any length.
    EXPECT_EQ(resolve(AttnChoice::Int8, true, false, false, false, 16),
              AttnBackendKind::Int8);
    // Hook-free short forwards keep their dense probes and backward.
    EXPECT_EQ(resolve(AttnChoice::Int8, false, false, false, false, 16),
              AttnBackendKind::Dense);
    // Hook-free long sequences may run integer attention.
    EXPECT_EQ(resolve(AttnChoice::Int8, false, false, false, false,
                      kStreamingAutoSeqLen),
              AttnBackendKind::Int8);
    // Hard dense requirements always win.
    EXPECT_EQ(resolve(AttnChoice::Int8, true, true, false, false, 4096),
              AttnBackendKind::Dense);
    EXPECT_EQ(resolve(AttnChoice::Int8, true, false, true, false, 4096),
              AttnBackendKind::Dense);
}

TEST(Int8Backend, ParseAndName)
{
    AttnChoice c = AttnChoice::Auto;
    EXPECT_TRUE(parseAttnChoice("int8", c));
    EXPECT_EQ(c, AttnChoice::Int8);
    const AttentionBackend &b = attentionBackend(AttnBackendKind::Int8);
    EXPECT_EQ(b.kind(), AttnBackendKind::Int8);
    EXPECT_FALSE(b.capturesScores());
    EXPECT_STREQ(b.name(), "int8");
}

TEST(Int8Backend, HeadMatchesDenseWithinQuantTolerance)
{
    Rng rng(30);
    const size_t n = 20, dh = 16;
    const Matrix q = Matrix::randomNormal(n, dh, rng);
    const Matrix k = Matrix::randomNormal(n, dh, rng);
    const Matrix v = Matrix::randomNormal(n, dh, rng);
    Matrix causal(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j)
            causal.row(i)[j] = 1.0f;

    AttnHeadProblem p;
    p.q = &q;
    p.k = &k;
    p.v = &v;
    p.scale = 1.0f / std::sqrt(static_cast<float>(dh));
    p.dense_mask = &causal;

    const AttnHeadResult dense =
        attentionBackend(AttnBackendKind::Dense).runHead(p);
    const AttnHeadResult i8 =
        attentionBackend(AttnBackendKind::Int8).runHead(p);
    ASSERT_EQ(i8.z.rows(), dense.z.rows());
    ASSERT_EQ(i8.z.cols(), dense.z.cols());
    EXPECT_LT(relMse(dense.z, i8.z), 0.01);
    EXPECT_LT(Matrix::maxAbsDiff(dense.z, i8.z), 0.2);
    // Masked (future) positions never leak: row 0 attends only to 0.
    for (size_t j = 0; j < dh; ++j)
        EXPECT_NEAR(i8.z(0, j), v(0, j), 0.05);
}

} // namespace
} // namespace dota
