/**
 * @file
 * Property tests for the vectorized kernel layer (DESIGN.md §11):
 *
 *  - every GEMM variant against a naive double-accumulator reference
 *    (tolerance), over random shapes including ragged, single-row and
 *    empty extremes;
 *  - bit-exact equivalence of the portable and AVX2 kernel tables (the
 *    per-element reduction contract in tensor/gemm_kernels.hpp);
 *  - short (1-3 row) GEMM blocks against the literal broadcast-FMA
 *    fold, bitwise;
 *  - the Level-2 sparse attention kernels against the dense masked
 *    computation, bitwise on kept coordinates, and their column
 *    windows against the portable table;
 *  - the single-query streaming kernel against its literal tile
 *    recurrence, bitwise;
 *  - the MultiHeadAttention sparse inference path against its forced
 *    dense path, bitwise.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hpp"
#include "nn/attention.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/simd.hpp"
#include "tensor/sparse_mask.hpp"
#include "tensor/sparse_ops.hpp"
#include "tensor/streaming_attention.hpp"
#include "tensor/topk.hpp"

namespace dota {
namespace {

bool
bitIdentical(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) ==
                0);
}

/** Naive matmul with double accumulation — the accuracy yardstick. */
Matrix
naiveMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < a.cols(); ++p)
                acc += static_cast<double>(a(i, p)) *
                       static_cast<double>(b(p, j));
            c(i, j) = static_cast<float>(acc);
        }
    return c;
}

Matrix
naiveMatmulBT(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.rows());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.rows(); ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < a.cols(); ++p)
                acc += static_cast<double>(a(i, p)) *
                       static_cast<double>(b(j, p));
            c(i, j) = static_cast<float>(acc);
        }
    return c;
}

Matrix
naiveMatmulAT(const Matrix &a, const Matrix &b)
{
    Matrix c(a.cols(), b.cols());
    for (size_t i = 0; i < a.cols(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            double acc = 0.0;
            for (size_t p = 0; p < a.rows(); ++p)
                acc += static_cast<double>(a(p, i)) *
                       static_cast<double>(b(p, j));
            c(i, j) = static_cast<float>(acc);
        }
    return c;
}

/**
 * The broadcast-FMA contract spelled out per element: acc folds
 * fma(a(i, p), b(p, j), acc) over p ascending from +0. Every matmul
 * must reproduce it bit for bit.
 */
Matrix
fmaFoldMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols());
    for (size_t i = 0; i < a.rows(); ++i)
        for (size_t j = 0; j < b.cols(); ++j) {
            float acc = 0.0f;
            for (size_t p = 0; p < a.cols(); ++p)
                acc = std::fma(a(i, p), b(p, j), acc);
            c(i, j) = acc;
        }
    return c;
}

/** Columns [off, off + width) of @p m as their own matrix. */
Matrix
columnWindow(const Matrix &m, size_t off, size_t width)
{
    Matrix w(m.rows(), width);
    for (size_t r = 0; r < m.rows(); ++r)
        std::copy(m.row(r) + off, m.row(r) + off + width, w.row(r));
    return w;
}

/** Relative-tolerance comparison scaled to the reduction depth. */
void
expectClose(const Matrix &got, const Matrix &ref, size_t depth,
            const char *what)
{
    ASSERT_EQ(got.rows(), ref.rows()) << what;
    ASSERT_EQ(got.cols(), ref.cols()) << what;
    const double tol =
        1e-5 * std::sqrt(static_cast<double>(depth) + 1.0);
    for (size_t i = 0; i < got.size(); ++i) {
        const double g = got.data()[i], r = ref.data()[i];
        EXPECT_NEAR(g, r, tol * (1.0 + std::abs(r)))
            << what << " flat index " << i;
    }
}

TEST(SimdKernels, GemmVariantsMatchNaiveReference)
{
    Rng shape_rng(41);
    for (int trial = 0; trial < 16; ++trial) {
        // Ragged shapes spanning the micro-kernel edge cases: below one
        // register tile, non-multiples of 8/16, and tall-skinny.
        const size_t m = 1 + shape_rng.uniformInt(70);
        const size_t k = 1 + shape_rng.uniformInt(70);
        const size_t n = 1 + shape_rng.uniformInt(70);
        Rng data_rng(1000 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(m, k, data_rng);
        const Matrix b = Matrix::randomNormal(k, n, data_rng);
        const Matrix bt = Matrix::randomNormal(n, k, data_rng);
        const Matrix at = Matrix::randomNormal(k, m, data_rng);
        expectClose(matmul(a, b), naiveMatmul(a, b), k, "matmul");
        expectClose(matmulBT(a, bt), naiveMatmulBT(a, bt), k, "matmulBT");
        expectClose(matmulAT(at, b), naiveMatmulAT(at, b), k, "matmulAT");
    }
}

TEST(SimdKernels, DegenerateShapes)
{
    Rng rng(42);
    // Single row/column and empty reduction (k = 0) or empty output
    // (m = 0 / n = 0) must all be well-defined.
    const Matrix a1 = Matrix::randomNormal(1, 17, rng);
    const Matrix b1 = Matrix::randomNormal(17, 1, rng);
    expectClose(matmul(a1, b1), naiveMatmul(a1, b1), 17, "1x17x1");

    const Matrix ak0(5, 0);
    const Matrix bk0(0, 7);
    const Matrix ck0 = matmul(ak0, bk0);
    ASSERT_EQ(ck0.rows(), 5u);
    ASSERT_EQ(ck0.cols(), 7u);
    for (size_t i = 0; i < ck0.size(); ++i)
        EXPECT_EQ(ck0.data()[i], 0.0f);

    const Matrix am0(0, 9);
    const Matrix bm0 = Matrix::randomNormal(9, 4, rng);
    EXPECT_EQ(matmul(am0, bm0).rows(), 0u);
    EXPECT_EQ(matmulBT(am0, Matrix::randomNormal(6, 9, rng)).rows(), 0u);
}

TEST(SimdKernels, PortableAndAvx2TablesBitIdentical)
{
    const GemmKernelTable &portable = detail::portableGemmKernels();
    const GemmKernelTable &avx2 = gemmKernels(SimdIsa::Avx2);
    if (&portable == &avx2)
        GTEST_SKIP() << "AVX2 table unavailable on this build/machine";

    Rng shape_rng(43);
    for (int trial = 0; trial < 20; ++trial) {
        const size_t m = 1 + shape_rng.uniformInt(53);
        const size_t k = 1 + shape_rng.uniformInt(53);
        const size_t n = 1 + shape_rng.uniformInt(53);
        Rng data_rng(2000 + static_cast<uint64_t>(trial));
        const Matrix a = Matrix::randomNormal(m, k, data_rng);
        const Matrix b = Matrix::randomNormal(k, n, data_rng);
        const Matrix bt = Matrix::randomNormal(n, k, data_rng);

        Matrix c_p(m, n), c_v(m, n);
        portable.matmulRows(a.data(), k, b, c_p, 0, m, k, false);
        avx2.matmulRows(a.data(), k, b, c_v, 0, m, k, false);
        EXPECT_TRUE(bitIdentical(c_p, c_v))
            << "matmulRows " << m << "x" << k << "x" << n;

        Matrix d_p(m, n), d_v(m, n);
        portable.matmulBTRows(a, bt, d_p.data(), n, n, 0, m);
        avx2.matmulBTRows(a, bt, d_v.data(), n, n, 0, m);
        EXPECT_TRUE(bitIdentical(d_p, d_v))
            << "matmulBTRows " << m << "x" << k << "x" << n;

        const Matrix at = Matrix::randomNormal(k, m, data_rng);
        Matrix e_p(m, n), e_v(m, n);
        portable.matmulATRows(at, b, e_p, 0, m);
        avx2.matmulATRows(at, b, e_v, 0, m);
        EXPECT_TRUE(bitIdentical(e_p, e_v))
            << "matmulATRows " << m << "x" << k << "x" << n;

        EXPECT_EQ(portable.dot(a.row(0), a.row(0), k),
                  avx2.dot(a.row(0), a.row(0), k));
    }
}

TEST(SimdKernels, ShortRowBlocksMatchFmaFoldAndPortable)
{
    // Blocks of 1-3 rows take the AVX2 GEMM's row-streaming order
    // (decode's single-row GEMMs); the per-element fold must not move.
    const GemmKernelTable &portable = detail::portableGemmKernels();
    const size_t dims[] = {1, 5, 17, 100, 1000};
    for (size_t m : {1u, 2u, 3u})
        for (size_t k : dims)
            for (size_t n : dims) {
                Rng rng(3000 + 100 * m + k + 7 * n);
                const Matrix a = Matrix::randomNormal(m, k, rng);
                const Matrix b = Matrix::randomNormal(k, n, rng);
                const Matrix ref = fmaFoldMatmul(a, b);
                EXPECT_TRUE(bitIdentical(matmul(a, b), ref))
                    << "matmul " << m << "x" << k << "x" << n;
                Matrix c_p(m, n);
                portable.matmulRows(a.data(), k, b, c_p, 0, m, k, false);
                EXPECT_TRUE(bitIdentical(c_p, ref))
                    << "portable " << m << "x" << k << "x" << n;
                // Same loop nest with A transposed (matmulAT).
                const Matrix at = transpose(a);
                EXPECT_TRUE(bitIdentical(matmulAT(at, b), ref))
                    << "matmulAT " << m << "x" << k << "x" << n;
            }
}

TEST(SimdKernels, WindowedLevel2KernelsMatchPortable)
{
    // Column windows over row-major keys/values, as decode reads one
    // head of a KV cache: off > 0, widths off the 8-lane grid and
    // around the 64-column A·V panel, nnz off the 4-key score groups.
    const GemmKernelTable &portable = detail::portableGemmKernels();
    const GemmKernelTable &active = activeGemmKernels();
    Rng rng(51);
    const size_t rows = 150, cols = 211;
    const Matrix keys = Matrix::randomNormal(rows, cols, rng);
    const Matrix vals = Matrix::randomNormal(rows, cols, rng);
    struct Window
    {
        size_t off, width;
    };
    for (const Window w : {Window{3, 13}, Window{64, 64}, Window{17, 71},
                           Window{100, 111}, Window{1, 1}})
        for (size_t nnz : {1u, 7u, 30u, 65u, 149u}) {
            std::vector<uint32_t> ids(nnz);
            for (size_t t = 0; t < nnz; ++t)
                ids[t] = static_cast<uint32_t>((t * 37 + 5) % rows);
            std::vector<float> q(w.width), p(nnz);
            for (float &x : q)
                x = static_cast<float>(rng.normal());
            for (float &x : p)
                x = 0.01f + std::abs(static_cast<float>(rng.normal()));

            std::vector<float> s_ref(nnz), s_act(nnz);
            portable.sparseScoreRow(q.data(), keys, w.off, w.width,
                                    ids.data(), nnz, s_ref.data());
            active.sparseScoreRow(q.data(), keys, w.off, w.width,
                                  ids.data(), nnz, s_act.data());
            EXPECT_EQ(std::memcmp(s_ref.data(), s_act.data(),
                                  nnz * sizeof(float)),
                      0)
                << "scores off=" << w.off << " width=" << w.width
                << " nnz=" << nnz;

            std::vector<float> z_ref(w.width), z_act(w.width, 7.0f);
            portable.sparseAvRow(p.data(), ids.data(), nnz, vals, w.off,
                                 w.width, z_ref.data());
            active.sparseAvRow(p.data(), ids.data(), nnz, vals, w.off,
                               w.width, z_act.data());
            EXPECT_EQ(std::memcmp(z_ref.data(), z_act.data(),
                                  w.width * sizeof(float)),
                      0)
                << "A*V off=" << w.off << " width=" << w.width
                << " nnz=" << nnz;

            // A window reads exactly what the whole-row kernel reads on
            // the window copied out.
            const Matrix kw = columnWindow(keys, w.off, w.width);
            const Matrix vw = columnWindow(vals, w.off, w.width);
            std::vector<float> s_whole(nnz), z_whole(w.width);
            portable.sparseScoreRow(q.data(), kw, 0, w.width, ids.data(),
                                    nnz, s_whole.data());
            portable.sparseAvRow(p.data(), ids.data(), nnz, vw, 0, w.width,
                                 z_whole.data());
            EXPECT_EQ(s_whole, s_ref);
            EXPECT_EQ(z_whole, z_ref);
        }
}

TEST(SimdKernels, StreamingAttentionQueryBitsUnchanged)
{
    // The decode-time single-query streaming kernel against its tile
    // recurrence spelled out literally: portable-table dot scores and a
    // std::fma A·V fold per tile. The windowed Level-2 kernels it runs
    // on must reproduce these bits.
    const GemmKernelTable &portable = detail::portableGemmKernels();
    Rng rng(52);
    const size_t t = 301, dim = 192, dh = 64, tile = 64;
    const Matrix k = Matrix::randomNormal(t, dim, rng);
    const Matrix v = Matrix::randomNormal(t, dim, rng);
    const float sc = 0.125f;
    for (size_t off : {0u, 64u, 128u}) {
        std::vector<float> q(dh);
        for (float &x : q)
            x = static_cast<float>(rng.normal());

        std::vector<float> s(tile), tmp(dh), acc(dh), out_ref(dh);
        float m = -std::numeric_limits<float>::infinity();
        double l = 0.0;
        for (size_t t0 = 0; t0 < t; t0 += tile) {
            const size_t cnt = std::min(t, t0 + tile) - t0;
            float tile_max = -std::numeric_limits<float>::infinity();
            for (size_t i = 0; i < cnt; ++i) {
                s[i] = portable.dot(q.data(), k.row(t0 + i) + off, dh) * sc;
                tile_max = std::max(tile_max, s[i]);
            }
            const float m_new = std::max(m, tile_max);
            double tile_sum = 0.0;
            for (size_t i = 0; i < cnt; ++i) {
                s[i] = std::exp(s[i] - m_new);
                tile_sum += s[i];
            }
            std::fill(tmp.begin(), tmp.end(), 0.0f);
            for (size_t i = 0; i < cnt; ++i)
                for (size_t c = 0; c < dh; ++c)
                    tmp[c] = std::fma(s[i], v.row(t0 + i)[off + c], tmp[c]);
            if (t0 == 0) {
                acc = tmp;
                l = tile_sum;
            } else {
                const float corr = std::exp(m - m_new);
                for (size_t c = 0; c < dh; ++c)
                    acc[c] = std::fma(corr, acc[c], tmp[c]);
                l = l * static_cast<double>(corr) + tile_sum;
            }
            m = m_new;
        }
        const float inv = static_cast<float>(1.0 / l);
        std::vector<float> probs_ref(t);
        for (size_t c = 0; c < dh; ++c)
            out_ref[c] = acc[c] * inv;
        for (size_t j = 0; j < t; ++j)
            probs_ref[j] =
                std::exp(portable.dot(q.data(), k.row(j) + off, dh) * sc -
                         m) *
                inv;

        std::vector<float> out(dh), probs;
        streamingAttentionQuery(q.data(), k, v, off, dh, sc, out.data(),
                                &probs, tile);
        EXPECT_EQ(std::memcmp(out.data(), out_ref.data(),
                              dh * sizeof(float)),
                  0)
            << "context off=" << off;
        ASSERT_EQ(probs.size(), t);
        EXPECT_EQ(std::memcmp(probs.data(), probs_ref.data(),
                              t * sizeof(float)),
                  0)
            << "probabilities off=" << off;
    }
}

TEST(SimdKernels, SparseScoresMatchDenseAtKeptCoordinates)
{
    Rng rng(44);
    for (size_t n : {5u, 33u, 64u}) {
        const size_t d = 24;
        const Matrix q = Matrix::randomNormal(n, d, rng);
        const Matrix k = Matrix::randomNormal(n, d, rng);
        const Matrix proxy = Matrix::randomNormal(n, n, rng);
        const SparseMask mask =
            SparseMask::fromDense(topkMask(proxy, std::max<size_t>(1, n / 4)));

        const CsrMatrix s = sparseRowsMatmulBT(q, k, mask);
        const Matrix dense = matmulBT(q, k);
        ASSERT_EQ(s.rows, n);
        for (size_t r = 0; r < n; ++r)
            for (uint32_t t = s.row_ptr[r]; t < s.row_ptr[r + 1]; ++t)
                EXPECT_EQ(s.val[t], dense(r, s.col[t]))
                    << "row " << r << " col " << s.col[t];
    }
}

TEST(SimdKernels, MaskedSoftmaxMatchesDenseIncludingEmptyRows)
{
    Rng rng(45);
    const size_t n = 29;
    const Matrix scores = Matrix::randomNormal(n, n, rng);
    Matrix dense_mask = topkMask(scores, 6);
    // Force one fully-omitted row: the dense path yields an all-zero
    // probability row there, the sparse path an empty CSR row.
    for (size_t c = 0; c < n; ++c)
        dense_mask(3, c) = 0.0f;
    const SparseMask mask = SparseMask::fromDense(dense_mask);
    const float sc = 0.125f;

    CsrMatrix s = csrFromMask(mask);
    // Fill CSR values with the dense scores at kept coordinates.
    for (size_t r = 0; r < n; ++r)
        for (uint32_t t = s.row_ptr[r]; t < s.row_ptr[r + 1]; ++t)
            s.val[t] = scores(r, s.col[t]);

    const CsrMatrix p = maskedSoftmax(s, sc);
    const Matrix ref = rowSoftmaxMasked(scale(scores, sc), dense_mask);
    const Matrix p_dense = p.toDense();
    EXPECT_TRUE(bitIdentical(p_dense, ref));
    // Empty row stayed empty.
    EXPECT_EQ(p.row_ptr[3], p.row_ptr[4]);
}

TEST(SimdKernels, MaskedSoftmaxOnFullMaskMatchesRowSoftmax)
{
    Rng rng(46);
    const size_t n = 21;
    const Matrix scores = Matrix::randomNormal(n, n, rng);
    Matrix full(n, n);
    for (size_t i = 0; i < full.size(); ++i)
        full.data()[i] = 1.0f;
    const SparseMask mask = SparseMask::fromDense(full);

    CsrMatrix s = csrFromMask(mask);
    for (size_t r = 0; r < n; ++r)
        for (uint32_t t = s.row_ptr[r]; t < s.row_ptr[r + 1]; ++t)
            s.val[t] = scores(r, s.col[t]);
    const float sc = 0.25f;
    const CsrMatrix p = maskedSoftmax(s, sc);
    const Matrix ref = rowSoftmax(scale(scores, sc));
    EXPECT_TRUE(bitIdentical(p.toDense(), ref));
}

TEST(SimdKernels, SparseAvMatchesDenseMatmul)
{
    Rng rng(47);
    const size_t n = 37, d = 19;
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    const Matrix dense_mask = topkMask(proxy, 9);
    const SparseMask mask = SparseMask::fromDense(dense_mask);
    const Matrix v = Matrix::randomNormal(n, d, rng);

    // Positive CSR values (softmax-like) with zeros elsewhere in the
    // dense twin: the sparse kernel skips exactly the zero terms, so the
    // results are bitwise equal.
    CsrMatrix a = csrFromMask(mask);
    Matrix a_dense(n, n);
    Rng vals(48);
    for (size_t r = 0; r < n; ++r)
        for (uint32_t t = a.row_ptr[r]; t < a.row_ptr[r + 1]; ++t) {
            const float x =
                0.05f + std::abs(static_cast<float>(vals.normal()));
            a.val[t] = x;
            a_dense(r, a.col[t]) = x;
        }

    EXPECT_TRUE(bitIdentical(sparseRowsMatmul(a, v), matmul(a_dense, v)));
}

TEST(SimdKernels, SparseMaskedAttentionMatchesDenseMaskedPath)
{
    Rng rng(49);
    for (size_t n : {16u, 57u}) {
        const size_t d = 16;
        const Matrix q = Matrix::randomNormal(n, d, rng);
        const Matrix k = Matrix::randomNormal(n, d, rng);
        const Matrix v = Matrix::randomNormal(n, d, rng);
        const Matrix proxy = Matrix::randomNormal(n, n, rng);
        const Matrix dense_mask =
            topkMask(proxy, std::max<size_t>(1, n / 4));
        const SparseMask mask = SparseMask::fromDense(dense_mask);
        const float sc = 1.0f / std::sqrt(static_cast<float>(d));

        const Matrix sparse = sparseMaskedAttention(q, k, v, mask, sc);
        const Matrix dense = matmul(
            rowSoftmaxMasked(scale(matmulBT(q, k), sc), dense_mask), v);
        EXPECT_TRUE(bitIdentical(sparse, dense)) << "n=" << n;
    }
}

/** Inference-only hook serving a fixed mask (sparse path permitted). */
class FixedMaskHook : public AttentionHook
{
  public:
    explicit FixedMaskHook(Matrix mask) : mask_(std::move(mask)) {}
    void beginLayer(size_t, const Matrix &) override {}
    Matrix selectMask(size_t, size_t, bool) override { return mask_; }
    void observeScores(size_t, size_t, const Matrix &) override
    {
        ++observe_calls;
    }
    Matrix scoreGradient(size_t, size_t) override { return {}; }
    bool wantsFullScores() const override { return false; }

    int observe_calls = 0;

  private:
    Matrix mask_;
};

TEST(SimdKernels, AttentionSparsePathBitIdenticalToForcedDense)
{
    // Pin the CSR sparse-rows backend: this test asserts bit-identity
    // to dense, which the streaming backend deliberately does not
    // promise (so a DOTA_ATTN=streaming environment must not leak in).
    ScopedAttnChoice pin(AttnChoice::Sparse);
    Rng rng(50);
    const size_t n = 40, dim = 32, heads = 4;
    MultiHeadAttention attn("t", 0, dim, heads, rng);
    const Matrix x = Matrix::randomNormal(n, dim, rng);
    const Matrix proxy = Matrix::randomNormal(n, n, rng);
    FixedMaskHook hook(topkMask(proxy, 10));
    attn.setHook(&hook);

    attn.setForceDense(true);
    const Matrix dense = attn.forward(x);
    EXPECT_FALSE(attn.lastForwardSparse());
    const int observe_dense = hook.observe_calls;
    EXPECT_EQ(observe_dense, static_cast<int>(heads));

    attn.setForceDense(false);
    const Matrix sparse = attn.forward(x);
    EXPECT_TRUE(attn.lastForwardSparse());
    // observeScores is skipped on the sparse path...
    EXPECT_EQ(hook.observe_calls, observe_dense);
    // ...the score/probability caches stay empty...
    for (size_t h = 0; h < heads; ++h) {
        EXPECT_TRUE(attn.lastScores()[h].empty());
        EXPECT_TRUE(attn.lastAttention()[h].empty());
        EXPECT_FALSE(attn.lastMasks()[h].empty());
    }
    // ...and the output is bitwise the dense masked result.
    EXPECT_TRUE(bitIdentical(sparse, dense));
}

} // namespace
} // namespace dota
