/**
 * @file
 * Unit and property tests for row-wise selection (the Detector's
 * selection step and the row-balance constraint).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numeric>

#include "tensor/ops.hpp"
#include "tensor/quant.hpp"
#include "tensor/topk.hpp"

namespace dota {
namespace {

TEST(TopK, RowTopKPicksLargest)
{
    Matrix s(1, 5, std::vector<float>{0.1f, 0.9f, 0.5f, 0.7f, 0.2f});
    auto ids = rowTopK(s, 0, 2);
    std::sort(ids.begin(), ids.end());
    ASSERT_EQ(ids.size(), 2u);
    EXPECT_EQ(ids[0], 1u);
    EXPECT_EQ(ids[1], 3u);
}

TEST(TopK, DeterministicTieBreak)
{
    Matrix s(1, 4, 1.0f);
    auto a = rowTopK(s, 0, 2);
    auto b = rowTopK(s, 0, 2);
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    EXPECT_EQ(a, b);
    EXPECT_EQ(a[0], 0u); // lowest indices win ties
    EXPECT_EQ(a[1], 1u);
}

TEST(TopK, KLargerThanColsClamps)
{
    Matrix s(1, 3, 1.0f);
    EXPECT_EQ(rowTopK(s, 0, 10).size(), 3u);
}

class TopkMaskProperty
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>>
{};

TEST_P(TopkMaskProperty, ExactlyKPerRow)
{
    const auto [n, k] = GetParam();
    Rng rng(41);
    const Matrix s = Matrix::randomNormal(n, n, rng);
    const Matrix mask = topkMask(s, k);
    for (size_t r = 0; r < n; ++r)
        EXPECT_EQ(maskRowCount(mask, r), std::min(k, n))
            << "row " << r;
}

TEST_P(TopkMaskProperty, SelectedDominateOmitted)
{
    const auto [n, k] = GetParam();
    Rng rng(42);
    const Matrix s = Matrix::randomNormal(n, n, rng);
    const Matrix mask = topkMask(s, k);
    for (size_t r = 0; r < n; ++r) {
        float min_kept = 1e30f, max_omitted = -1e30f;
        for (size_t c = 0; c < n; ++c) {
            if (mask(r, c) != 0.0f)
                min_kept = std::min(min_kept, s(r, c));
            else
                max_omitted = std::max(max_omitted, s(r, c));
        }
        if (k < n) {
            EXPECT_GE(min_kept, max_omitted) << "row " << r;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TopkMaskProperty,
    ::testing::Values(std::make_tuple(8, 1), std::make_tuple(16, 3),
                      std::make_tuple(32, 8), std::make_tuple(17, 5),
                      std::make_tuple(10, 10)));

TEST(TopK, CausalMaskLowerTriangular)
{
    Rng rng(43);
    const Matrix s = Matrix::randomNormal(12, 12, rng);
    const Matrix mask = topkMaskCausal(s, 4);
    for (size_t r = 0; r < 12; ++r) {
        for (size_t c = r + 1; c < 12; ++c)
            EXPECT_FLOAT_EQ(mask(r, c), 0.0f);
        EXPECT_EQ(maskRowCount(mask, r), std::min<size_t>(4, r + 1));
    }
}

TEST(TopK, ThresholdMask)
{
    Matrix s(1, 4, std::vector<float>{-1, 0, 1, 2});
    const Matrix mask = thresholdMask(s, 0.5f);
    EXPECT_FLOAT_EQ(mask(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(mask(0, 2), 1.0f);
    EXPECT_FLOAT_EQ(mask(0, 3), 1.0f);
}

TEST(TopK, ThresholdForRetentionHitsTarget)
{
    Rng rng(44);
    const Matrix s = Matrix::randomNormal(64, 64, rng);
    for (double retention : {0.05, 0.1, 0.25, 0.5}) {
        const float thr = thresholdForRetention(s, retention);
        const Matrix mask = thresholdMask(s, thr);
        EXPECT_NEAR(maskDensity(mask), retention, 0.01);
    }
}

TEST(TopK, MaskDensity)
{
    Matrix mask(2, 4);
    mask(0, 0) = 1.0f;
    mask(1, 3) = 1.0f;
    EXPECT_DOUBLE_EQ(maskDensity(mask), 0.25);
    EXPECT_DOUBLE_EQ(maskDensity(Matrix()), 0.0);
}

TEST(TopK, RecallPerfectWhenMaskIsTopk)
{
    Rng rng(45);
    const Matrix s = Matrix::randomNormal(10, 10, rng);
    const Matrix mask = topkMask(s, 3);
    EXPECT_DOUBLE_EQ(topkRecall(s, mask, 3), 1.0);
}

TEST(TopK, RecallZeroWhenMaskIsBottomk)
{
    Rng rng(46);
    const Matrix s = Matrix::randomNormal(10, 10, rng);
    const Matrix inverted = scale(s, -1.0f);
    const Matrix mask = topkMask(inverted, 3);
    EXPECT_LT(topkRecall(s, mask, 3), 0.05);
}

TEST(TopK, MassRecallBounds)
{
    Rng rng(47);
    const Matrix s = Matrix::randomNormal(8, 8, rng);
    const Matrix full(8, 8, 1.0f);
    EXPECT_NEAR(attentionMassRecall(s, full), 1.0, 1e-6);
    const Matrix none(8, 8, 0.0f);
    EXPECT_NEAR(attentionMassRecall(s, none), 0.0, 1e-9);
    const Matrix top = topkMask(s, 2);
    const double mass = attentionMassRecall(s, top);
    EXPECT_GT(mass, 2.0 / 8.0); // top-k beats uniform share
    EXPECT_LE(mass, 1.0);
}

TEST(TopK, MassRecallMonotoneInK)
{
    Rng rng(48);
    const Matrix s = Matrix::randomNormal(16, 16, rng);
    double prev = 0.0;
    for (size_t k : {1u, 2u, 4u, 8u, 16u}) {
        const double mass = attentionMassRecall(s, topkMask(s, k));
        EXPECT_GE(mass, prev);
        prev = mass;
    }
}

/**
 * Test-only reference: the index-sorting selection the kernels used
 * before the value-threshold rewrite — nth_element over column ids in
 * (value desc, column asc) order — with NaN ranked below every number
 * so the comparator is a strict weak order on any row.
 */
Matrix
referenceTopkMask(const Matrix &scores, size_t k, bool causal)
{
    Matrix mask(scores.rows(), scores.cols());
    for (size_t r = 0; r < scores.rows(); ++r) {
        const size_t visible =
            causal ? std::min(r + 1, scores.cols()) : scores.cols();
        const size_t kk = std::min(k, visible);
        std::vector<uint32_t> idx(visible);
        std::iota(idx.begin(), idx.end(), 0u);
        const float *row = scores.row(r);
        std::nth_element(idx.begin(), idx.begin() + static_cast<long>(kk),
                         idx.end(), [row](uint32_t a, uint32_t b) {
                             const bool na = std::isnan(row[a]);
                             const bool nb = std::isnan(row[b]);
                             if (na != nb)
                                 return nb;
                             if (!na && row[a] != row[b])
                                 return row[a] > row[b];
                             return a < b;
                         });
        for (size_t i = 0; i < kk; ++i)
            mask(r, idx[i]) = 1.0f;
    }
    return mask;
}

/** Mask, causal mask and per-row rowTopK all match the reference. */
void
expectMatchesReference(const Matrix &s, size_t k, const std::string &what)
{
    const Matrix ref = referenceTopkMask(s, k, false);
    EXPECT_EQ(Matrix::maxAbsDiff(topkMask(s, k), ref), 0.0)
        << what << " k=" << k;
    EXPECT_EQ(Matrix::maxAbsDiff(topkMaskCausal(s, k),
                                 referenceTopkMask(s, k, true)),
              0.0)
        << what << " causal k=" << k;
    for (size_t r = 0; r < s.rows(); ++r) {
        std::vector<uint32_t> want;
        for (size_t c = 0; c < s.cols(); ++c)
            if (ref(r, c) != 0.0f)
                want.push_back(static_cast<uint32_t>(c));
        EXPECT_EQ(rowTopK(s, r, k), want) << what << " row " << r;
    }
}

/** Keep-counts worth covering for an n-wide row, including k > n. */
std::vector<size_t>
keepCounts(size_t n)
{
    return {0, 1, 2, n / 10, n / 2, n > 0 ? n - 1 : 0, n, n + 3};
}

TEST(TopK, ValueThresholdSelectionMatchesReferenceOnRandomRows)
{
    for (size_t n : {1u, 2u, 7u, 33u, 130u}) {
        Rng rng(900 + n);
        const Matrix s = Matrix::randomNormal(n, n, rng);
        for (size_t k : keepCounts(n))
            expectMatchesReference(s, k, "normal n=" + std::to_string(n));
    }
}

TEST(TopK, ValueThresholdSelectionMatchesReferenceOnTiedRows)
{
    // 4-bit (and 2-bit) fake-quantized estimates, like the detector's:
    // a row holds only a handful of distinct values, so the kk-th value
    // is almost always tied and the column tie-break decides the set.
    for (int bits : {2, 4}) {
        for (size_t n : {9u, 64u, 129u}) {
            Rng rng(1000 + n + static_cast<size_t>(bits));
            const Matrix s =
                fakeQuant(Matrix::randomNormal(n, n, rng), bits);
            for (size_t k : keepCounts(n))
                expectMatchesReference(s, k,
                                       std::to_string(bits) +
                                           "-bit n=" + std::to_string(n));
        }
    }
}

TEST(TopK, SignedZerosTieByColumn)
{
    Rng rng(1100);
    const size_t n = 48;
    Matrix s(n, n);
    const float vals[] = {0.0f, -0.0f, 0.0f, -0.0f, 1.0f, -1.0f};
    for (size_t i = 0; i < s.size(); ++i)
        s.data()[i] = vals[rng.uniformInt(6)];
    for (size_t k : keepCounts(n))
        expectMatchesReference(s, k, "signed zeros");
    // -0 and +0 compare equal: the earlier column wins.
    Matrix z(1, 3, std::vector<float>{0.0f, -0.0f, 0.0f});
    EXPECT_EQ(rowTopK(z, 0, 1), (std::vector<uint32_t>{0}));
    Matrix zr(1, 3, std::vector<float>{-0.0f, 0.0f, -1.0f});
    EXPECT_EQ(rowTopK(zr, 0, 1), (std::vector<uint32_t>{0}));
}

TEST(TopK, NaNRanksBelowEveryNumber)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const Matrix s(1, 6, std::vector<float>{nan, 1.0f, -inf, nan, inf, 0.0f});
    EXPECT_EQ(rowTopK(s, 0, 3), (std::vector<uint32_t>{1, 4, 5}));
    EXPECT_EQ(rowTopK(s, 0, 4), (std::vector<uint32_t>{1, 2, 4, 5}));
    // Past the numbers, NaN columns are taken in column order.
    EXPECT_EQ(rowTopK(s, 0, 5), (std::vector<uint32_t>{0, 1, 2, 4, 5}));
    EXPECT_EQ(rowTopK(s, 0, 6).size(), 6u);
    const Matrix all_nan(1, 4, nan);
    EXPECT_EQ(rowTopK(all_nan, 0, 2), (std::vector<uint32_t>{0, 1}));

    // Causal: row 3 sees {nan, 1, -inf, nan}; k=3 keeps both numbers and
    // the first NaN.
    Matrix c(4, 6, 0.0f);
    for (size_t j = 0; j < 6; ++j)
        c(3, j) = s(0, j);
    const Matrix mc = topkMaskCausal(c, 3);
    EXPECT_EQ(mc(3, 0), 1.0f);
    EXPECT_EQ(mc(3, 1), 1.0f);
    EXPECT_EQ(mc(3, 2), 1.0f);
    EXPECT_EQ(mc(3, 3), 0.0f);
    EXPECT_EQ(maskRowCount(mc, 3), 3u);
}

TEST(TopK, NonFiniteRowsMatchReference)
{
    const float special[] = {std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
    for (size_t n : {1u, 5u, 40u, 97u}) {
        Rng rng(1200 + n);
        Matrix s = fakeQuant(Matrix::randomNormal(n, n, rng), 4);
        for (size_t i = 0; i < s.size(); ++i)
            if (rng.uniformInt(4) == 0)
                s.data()[i] = special[rng.uniformInt(3)];
        for (size_t k : keepCounts(n))
            expectMatchesReference(s, k, "non-finite n=" +
                                             std::to_string(n));
    }
}

TEST(TopK, SelectRowTopKOnVisiblePrefix)
{
    Rng rng(1300);
    const Matrix s = fakeQuant(Matrix::randomNormal(1, 50, rng), 4);
    TopkScratch scratch;
    for (size_t visible : {0u, 1u, 20u, 50u}) {
        for (size_t k : {1u, 5u, 20u, 60u}) {
            std::vector<float> out(50, 0.0f);
            selectRowTopK(s.row(0), visible, k, scratch, out.data());
            Matrix prefix(1, visible);
            std::copy(s.row(0), s.row(0) + visible, prefix.data());
            const Matrix ref = referenceTopkMask(prefix, k, false);
            for (size_t c = 0; c < 50; ++c)
                EXPECT_EQ(out[c], c < visible ? ref(0, c) : 0.0f)
                    << "visible=" << visible << " k=" << k << " c=" << c;
        }
    }
}

} // namespace
} // namespace dota
