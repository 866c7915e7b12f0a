/**
 * @file
 * The causal triangle heads (nn/attention_backend.hpp): hook-free
 * causal attention computes only the visible prefix of each row, and
 * must give the bits of the literal full-square masked sequence on
 * both kernel tables and at 1 and 8 threads. Also pins what still
 * sees the full square (hooks observing S) and the non-finite
 * contract the triangle shares with decode.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/thread_pool.hpp"
#include "detect/detector.hpp"
#include "nn/attention.hpp"
#include "nn/attention_backend.hpp"
#include "nn/decode.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace dota {
namespace {

const size_t kSeqLens[] = {1, 2, 3, 63, 64, 65, 130, 257};
// 24 adds the AVX2 8-column edge tile to the 16-column panels.
const size_t kHeadDims[] = {1, 5, 16, 24, 64};

class ScopedThreads
{
  public:
    explicit ScopedThreads(size_t n) : prev_(ThreadPool::globalConcurrency())
    {
        ThreadPool::setGlobalConcurrency(n);
    }
    ~ScopedThreads() { ThreadPool::setGlobalConcurrency(prev_); }

  private:
    size_t prev_;
};

bool
bitIdentical(const float *a, const float *b, size_t count)
{
    return count == 0 || std::memcmp(a, b, count * sizeof(float)) == 0;
}

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           bitIdentical(a.data(), b.data(), a.size());
}

Matrix
causalMask(size_t n)
{
    Matrix m(n, n);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j <= i; ++j)
            m(i, j) = 1.0f;
    return m;
}

/** Both tables; the AVX2 entry is the portable one where unavailable. */
std::vector<std::pair<const char *, const GemmKernelTable *>>
tables()
{
    return {{"portable", &detail::portableGemmKernels()},
            {"avx2", &gemmKernels(SimdIsa::Avx2)}};
}

TEST(CausalAttention, DenseTriangleMatchesFullSquareReference)
{
    for (size_t n : kSeqLens)
        for (size_t dh : kHeadDims) {
            Rng rng(100 * n + dh);
            const Matrix q = Matrix::randomNormal(n, dh, rng);
            const Matrix k = Matrix::randomNormal(n, dh, rng);
            const Matrix v = Matrix::randomNormal(n, dh, rng);
            const float s = 1.0f / std::sqrt(static_cast<float>(dh));
            // The pre-triangle dense path, literally.
            const Matrix ref_s = matmulBT(q, k);
            const Matrix ref_a =
                rowSoftmaxMasked(scale(ref_s, s), causalMask(n));
            const Matrix ref_z = matmul(ref_a, v);
            for (auto [name, kt] : tables())
                for (size_t threads : {1u, 8u}) {
                    ScopedThreads pin(threads);
                    const AttnHeadResult r = denseCausalHead(q, k, v, s, *kt);
                    const std::string at = std::string(name) + " n=" +
                                           std::to_string(n) + " dh=" +
                                           std::to_string(dh) + " threads=" +
                                           std::to_string(threads);
                    EXPECT_TRUE(bitIdentical(r.z, ref_z)) << "z " << at;
                    EXPECT_TRUE(bitIdentical(r.probs, ref_a)) << "A " << at;
                    ASSERT_EQ(r.scores.rows(), n);
                    ASSERT_EQ(r.scores.cols(), n);
                    size_t lower_differ = 0, upper_nonzero = 0;
                    for (size_t i = 0; i < n; ++i) {
                        lower_differ += !bitIdentical(r.scores.row(i),
                                                      ref_s.row(i), i + 1);
                        for (size_t j = i + 1; j < n; ++j)
                            upper_nonzero += r.scores(i, j) != 0.0f;
                    }
                    EXPECT_EQ(lower_differ, 0u) << "lower S " << at;
                    EXPECT_EQ(upper_nonzero, 0u) << "upper S " << at;
                }
        }
}

/**
 * The pre-triangle int8 head: full raw GEMM, integer softmax under
 * @p keep (nullptr = unmasked), dequantized A*V GEMM.
 */
Matrix
int8FullSquare(const U8Tensor &qq, const Int8Tensor &kk,
               const Int8Tensor &vt, const IntSoftmaxLut &lut,
               const Matrix *keep, std::vector<int32_t> &raw)
{
    const size_t n = qq.rows, t = kk.rows;
    raw.assign(n * t, 0);
    int8GemmBT(qq, kk, raw.data());
    U8Tensor probs;
    probs.rows = n;
    probs.k = t;
    probs.scale = lut.probScale();
    probs.zero_point = 0;
    probs.codes.resize(n * t);
    std::vector<uint32_t> scratch(t);
    for (size_t i = 0; i < n; ++i)
        lut.softmaxRow(raw.data() + i * t, t,
                       keep ? keep->row(i) : nullptr,
                       probs.codes.data() + i * t, scratch);
    return int8MatmulBT(probs, vt);
}

TEST(CausalAttention, Int8TriangleMatchesFullSquareReference)
{
    for (size_t n : kSeqLens)
        for (size_t dh : kHeadDims) {
            Rng rng(200 * n + dh);
            const Matrix q = Matrix::randomNormal(n, dh, rng);
            const Matrix k = Matrix::randomNormal(n, dh, rng);
            const Matrix v = Matrix::randomNormal(n, dh, rng);
            const U8Tensor qq =
                quantizeU8(q, chooseSymmetricScale(q, 7).scale);
            const Int8Tensor kk =
                quantizeS8(k, chooseSymmetricScale(k, 8).scale);
            const Int8Tensor vt =
                quantizeS8Transposed(v, chooseSymmetricScale(v, 8).scale);
            const IntSoftmaxLut lut(qq.scale * kk.scale /
                                    std::sqrt(static_cast<float>(dh)));
            const Matrix mask = causalMask(n);
            std::vector<int32_t> ref_raw;
            const Matrix ref_causal =
                int8FullSquare(qq, kk, vt, lut, &mask, ref_raw);
            const Matrix ref_full =
                int8FullSquare(qq, kk, vt, lut, nullptr, ref_raw);
            for (auto [name, kt] : tables())
                for (size_t threads : {1u, 8u}) {
                    ScopedThreads pin(threads);
                    const std::string at = std::string(name) + " n=" +
                                           std::to_string(n) + " dh=" +
                                           std::to_string(dh) + " threads=" +
                                           std::to_string(threads);
                    EXPECT_TRUE(bitIdentical(
                        int8AttentionHead(qq, kk, vt, lut, nullptr, true,
                                          nullptr, *kt),
                        ref_causal))
                        << "triangle " << at;
                    EXPECT_TRUE(bitIdentical(
                        int8AttentionHead(qq, kk, vt, lut, &mask, true,
                                          nullptr, *kt),
                        ref_causal))
                        << "masked square " << at;
                    std::vector<int32_t> raw;
                    EXPECT_TRUE(bitIdentical(
                        int8AttentionHead(qq, kk, vt, lut, nullptr, false,
                                          &raw, *kt),
                        ref_full))
                        << "unmasked square " << at;
                    EXPECT_EQ(raw, ref_raw) << "raw scores " << at;
                }
        }
}

TEST(CausalAttention, FullScoreHookStillSeesUpperTriangle)
{
    TransformerConfig cfg;
    cfg.dim = 32;
    cfg.heads = 2;
    cfg.layers = 1;
    Rng rng(31);
    MultiHeadAttention attn("a", 0, cfg.dim, cfg.heads, rng,
                            /*causal=*/true);
    const size_t n = 40, dh = cfg.headDim();
    const Matrix x = Matrix::randomNormal(n, cfg.dim, rng);
    const Matrix q = matmul(x, attn.wq()), k = matmul(x, attn.wk());
    std::vector<Matrix> full(cfg.heads);
    for (size_t h = 0; h < cfg.heads; ++h) {
        Matrix qh(n, dh), kh(n, dh);
        for (size_t i = 0; i < n; ++i)
            for (size_t c = 0; c < dh; ++c) {
                qh(i, c) = q(i, h * dh + c);
                kh(i, c) = k(i, h * dh + c);
            }
        full[h] = matmulBT(qh, kh);
    }

    // A training detector that does not mask: wantsFullScores() and no
    // hook mask, so the layer must run the full square.
    DetectorConfig dc;
    dc.apply_mask = false;
    dc.train = true;
    DotaDetector det(cfg, dc);
    ASSERT_TRUE(det.wantsFullScores());
    attn.setHook(&det);
    const Matrix hooked = attn.forward(x);
    for (size_t h = 0; h < cfg.heads; ++h) {
        EXPECT_TRUE(bitIdentical(attn.lastScores()[h], full[h]))
            << "head " << h;
        EXPECT_NE(attn.lastScores()[h](0, n - 1), 0.0f);
    }

    // Hook-free: the triangle, with the same output bits.
    attn.setHook(nullptr);
    const Matrix plain = attn.forward(x);
    EXPECT_TRUE(bitIdentical(plain, hooked));
    for (size_t h = 0; h < cfg.heads; ++h) {
        const Matrix &s = attn.lastScores()[h];
        for (size_t i = 0; i < n; ++i) {
            EXPECT_TRUE(bitIdentical(s.row(i), full[h].row(i), i + 1));
            for (size_t j = i + 1; j < n; ++j)
                EXPECT_EQ(s(i, j), 0.0f);
        }
    }
}

TEST(CausalAttention, NonFiniteValueReachesOnlyLaterRows)
{
    // An Inf in V row j: rows i < j of the triangle keep their finite
    // bits (the full square multiplied it by a zero probability and got
    // NaN), on every tile shape of both tables at 1 and 8 threads.
    const float inf = std::numeric_limits<float>::infinity();
    for (size_t n : {2u, 3u, 4u, 5u, 9u, 63u, 200u, 257u})
        for (size_t j : {n / 2, n - 1}) {
            Rng rng(300 * n + j);
            // 29 columns: a 16-column panel, an 8-column edge tile and
            // a scalar tail, each with an Inf planted in row j.
            const Matrix q = Matrix::randomNormal(n, 29, rng);
            const Matrix k = Matrix::randomNormal(n, 29, rng);
            Matrix v = Matrix::randomNormal(n, 29, rng);
            const Matrix clean = denseCausalHead(q, k, v, 0.25f).z;
            for (size_t c : {3u, 20u, 27u})
                v(j, c) = inf;
            for (auto [name, kt] : tables())
                for (size_t threads : {1u, 8u}) {
                    ScopedThreads pin(threads);
                    const Matrix z = denseCausalHead(q, k, v, 0.25f, *kt).z;
                    size_t differ = 0;
                    for (size_t i = 0; i < j; ++i)
                        differ += !bitIdentical(z.row(i), clean.row(i), 29);
                    EXPECT_EQ(differ, 0u)
                        << name << " n=" << n << " j=" << j
                        << " threads=" << threads;
                    for (size_t c : {3u, 20u, 27u})
                        EXPECT_FALSE(std::isfinite(z(j, c)));
                }
        }
}

TEST(CausalAttention, NonFiniteLaterTokenDoesNotPoisonEarlierRows)
{
    // The triangle skips coordinates past the diagonal rather than
    // multiplying them by zero, like decode: an Inf in token j's
    // embedding reaches rows >= j only.
    ScopedAttnChoice pin(AttnChoice::Dense);
    TransformerConfig cfg;
    cfg.dim = 16;
    cfg.heads = 2;
    cfg.layers = 2;
    cfg.ffn_dim = 32;
    cfg.vocab = 20;
    cfg.max_seq = 40;
    cfg.seed = 5;
    CausalLM model(cfg);
    const int poisoned = 19;
    float *emb = model.tokenEmbedding().table().value.row(poisoned);
    emb[0] = std::numeric_limits<float>::infinity();
    const std::vector<int> ids{3, 7, 1, 12, 5, poisoned, 9, 0, 4};
    const size_t j = 5;

    const Matrix full = model.forward(ids);
    DecodeState state;
    state.reset(cfg.layers);
    for (size_t i = 0; i < j; ++i) {
        const Matrix logits = decodeStep(model, state, ids[i]);
        for (size_t c = 0; c < full.cols(); ++c)
            ASSERT_TRUE(std::isfinite(full(i, c))) << "row " << i;
        EXPECT_TRUE(bitIdentical(logits.row(0), full.row(i), full.cols()))
            << "row " << i;
    }
    bool later_poisoned = false;
    for (size_t c = 0; c < full.cols(); ++c)
        later_poisoned |= !std::isfinite(full(j, c));
    EXPECT_TRUE(later_poisoned) << "the planted Inf never reached row j";
}

} // namespace
} // namespace dota
