/**
 * @file
 * Implementation of row-wise selection kernels.
 */
#include "tensor/topk.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "tensor/ops.hpp"

namespace dota {

namespace {

/**
 * Buckets of the value histogram that narrows the nth_element copy to
 * the one bucket holding the kk-th value. 256 keeps the per-row clear
 * negligible, fits a bucket id in a byte, and leaves ~1/256 of a
 * spread-out row in that bucket.
 */
constexpr int kSelectBuckets = 256;

/**
 * The kk-th number v of row[0, visible) in descending order, with
 * 0 < kk < (numbers in the row). Also returns, in @p ties, how many
 * columns equal to v the selection takes. Bucketing by floor((x - lo) * s) is monotone in x, so every
 * number in a higher bucket is larger than every number in the bucket
 * that holds the kk-th: only that bucket is copied and searched with
 * nth_element. Equal values (including ±0) share a bucket.
 */
float
kthNumber(const float *row, size_t visible, size_t kk, float lo, float hi,
          TopkScratch &scratch, size_t &ties)
{
    const float span = hi - lo;
    const float s = static_cast<float>(kSelectBuckets) / span;
    uint8_t *bucket = scratch.buckets.data();
    size_t above = 0; // numbers in buckets above the kk-th's bucket
    uint8_t target = 0;
    if (std::isfinite(span) && span > 0.0f && std::isfinite(s)) {
        uint32_t hist[kSelectBuckets] = {};
        for (size_t c = 0; c < visible; ++c) {
            const float x = row[c];
            const bool number = !std::isnan(x);
            // (x - lo) * s lies in [0, ~256], so the truncating int
            // conversion is a floor.
            bucket[c] = number ? static_cast<uint8_t>(std::min(
                                     kSelectBuckets - 1,
                                     static_cast<int>((x - lo) * s)))
                               : 0;
            hist[bucket[c]] += number;
        }
        int b = kSelectBuckets - 1;
        while (above + hist[b] < kk)
            above += hist[b--];
        target = static_cast<uint8_t>(b);
    } else {
        // The range holds ±Inf (or is degenerate): one bucket for all.
        std::fill(bucket, bucket + visible, uint8_t{0});
    }
    // Branch-free compaction of the target bucket's numbers.
    float *cand = scratch.values.data();
    size_t m = 0;
    for (size_t c = 0; c < visible; ++c) {
        const float x = row[c];
        cand[m] = x;
        m += !std::isnan(x) & (bucket[c] == target);
    }
    float *kth = cand + (kk - above - 1);
    std::nth_element(cand, kth, cand + m, std::greater<float>());
    const float v = *kth;
    // [cand, kth) holds values >= v: the ones equal to v, plus v itself,
    // are the ties the selection takes.
    ties = 1 + static_cast<size_t>(std::count(cand, kth, v));
    return v;
}

/** Row-parallel mask of selectRowTopK over each row's visible prefix. */
template <typename Visible>
Matrix
topkMaskRows(const Matrix &scores, size_t k, Visible visible)
{
    Matrix mask(scores.rows(), scores.cols());
    forRowBlocks(scores.rows(), scores.cols(), [&](size_t r0, size_t r1) {
        TopkScratch scratch;
        for (size_t r = r0; r < r1; ++r)
            selectRowTopK(scores.row(r), visible(r), k, scratch,
                          mask.row(r));
    });
    return mask;
}

} // namespace

void
selectRowTopK(const float *row, size_t visible, size_t k,
              TopkScratch &scratch, float *mask_row)
{
    const size_t kk = std::min(k, visible);
    if (kk == visible || kk == 0) {
        std::fill(mask_row, mask_row + visible, kk == 0 ? 0.0f : 1.0f);
        return;
    }
    // Range and count of the row's numbers. Eight accumulators keep the
    // min/max dependency chains short; std::min/std::max keep the
    // accumulator when x is NaN.
    constexpr size_t kLanes = 8;
    float lo8[kLanes], hi8[kLanes];
    size_t count8[kLanes] = {};
    std::fill(lo8, lo8 + kLanes, std::numeric_limits<float>::infinity());
    std::fill(hi8, hi8 + kLanes, -std::numeric_limits<float>::infinity());
    const size_t body = visible - visible % kLanes;
    for (size_t c = 0; c < body; c += kLanes)
        for (size_t l = 0; l < kLanes; ++l) {
            lo8[l] = std::min(lo8[l], row[c + l]);
            hi8[l] = std::max(hi8[l], row[c + l]);
            count8[l] += !std::isnan(row[c + l]);
        }
    for (size_t c = body; c < visible; ++c) {
        lo8[0] = std::min(lo8[0], row[c]);
        hi8[0] = std::max(hi8[0], row[c]);
        count8[0] += !std::isnan(row[c]);
    }
    const float lo = *std::min_element(lo8, lo8 + kLanes);
    const float hi = *std::max_element(hi8, hi8 + kLanes);
    size_t numbers = 0;
    for (size_t n : count8)
        numbers += n;
    if (kk >= numbers) {
        // Every number is kept; NaN columns fill the rest by column.
        size_t nan_left = kk - numbers;
        for (size_t c = 0; c < visible; ++c) {
            bool keep = !std::isnan(row[c]);
            if (!keep && nan_left > 0) {
                keep = true;
                --nan_left;
            }
            mask_row[c] = keep ? 1.0f : 0.0f;
        }
        return;
    }
    if (scratch.values.size() < visible) {
        scratch.values.resize(visible);
        scratch.buckets.resize(visible);
    }
    size_t ties = 0;
    const float v = kthNumber(row, visible, kk, lo, hi, scratch, ties);
    // Columns equal to v are taken in column order until kk are kept.
    for (size_t c = 0; c < visible; ++c) {
        bool keep = row[c] > v;
        if (row[c] == v && ties > 0) {
            keep = true;
            --ties;
        }
        mask_row[c] = keep ? 1.0f : 0.0f;
    }
}

std::vector<uint32_t>
rowTopK(const Matrix &scores, size_t r, size_t k)
{
    const size_t n = scores.cols();
    std::vector<float> keep(n);
    TopkScratch scratch;
    selectRowTopK(scores.row(r), n, k, scratch, keep.data());
    std::vector<uint32_t> idx;
    idx.reserve(std::min(k, n));
    for (size_t c = 0; c < n; ++c)
        if (keep[c] != 0.0f)
            idx.push_back(static_cast<uint32_t>(c));
    return idx;
}

Matrix
topkMask(const Matrix &scores, size_t k)
{
    const size_t n = scores.cols();
    return topkMaskRows(scores, k, [n](size_t) { return n; });
}

Matrix
topkMaskCausal(const Matrix &scores, size_t k)
{
    const size_t n = scores.cols();
    return topkMaskRows(scores, k,
                        [n](size_t r) { return std::min(r + 1, n); });
}

Matrix
thresholdMask(const Matrix &scores, float threshold)
{
    Matrix mask(scores.rows(), scores.cols());
    for (size_t i = 0; i < scores.size(); ++i)
        mask.data()[i] = scores.data()[i] >= threshold ? 1.0f : 0.0f;
    return mask;
}

float
thresholdForRetention(const Matrix &scores, double retention)
{
    DOTA_ASSERT(retention > 0.0 && retention <= 1.0,
                "retention {} out of (0, 1]", retention);
    std::vector<float> vals(scores.data(), scores.data() + scores.size());
    const auto keep = std::max<size_t>(
        1, static_cast<size_t>(retention *
                               static_cast<double>(vals.size())));
    std::nth_element(vals.begin(), vals.begin() + static_cast<long>(keep - 1),
                     vals.end(), std::greater<float>());
    return vals[keep - 1];
}

double
maskDensity(const Matrix &mask)
{
    if (mask.empty())
        return 0.0;
    size_t nnz = 0;
    for (size_t i = 0; i < mask.size(); ++i)
        nnz += mask.data()[i] != 0.0f;
    return static_cast<double>(nnz) / static_cast<double>(mask.size());
}

size_t
maskRowCount(const Matrix &mask, size_t r)
{
    size_t nnz = 0;
    const float *row = mask.row(r);
    for (size_t c = 0; c < mask.cols(); ++c)
        nnz += row[c] != 0.0f;
    return nnz;
}

double
attentionMassRecall(const Matrix &scaled_scores, const Matrix &mask)
{
    DOTA_ASSERT(scaled_scores.rows() == mask.rows() &&
                    scaled_scores.cols() == mask.cols(),
                "attentionMassRecall shape mismatch");
    const Matrix probs = rowSoftmax(scaled_scores);
    double total = 0.0;
    for (size_t r = 0; r < probs.rows(); ++r) {
        double kept = 0.0;
        for (size_t c = 0; c < probs.cols(); ++c)
            if (mask(r, c) != 0.0f)
                kept += probs(r, c);
        total += kept;
    }
    return total / static_cast<double>(probs.rows());
}

double
topkRecall(const Matrix &exact, const Matrix &mask, size_t k)
{
    DOTA_ASSERT(exact.rows() == mask.rows() && exact.cols() == mask.cols(),
                "topkRecall shape mismatch");
    double total = 0.0;
    for (size_t r = 0; r < exact.rows(); ++r) {
        const auto truth = rowTopK(exact, r, k);
        size_t hit = 0;
        for (uint32_t c : truth)
            hit += mask(r, c) != 0.0f;
        total += static_cast<double>(hit) /
                 static_cast<double>(std::min(k, exact.cols()));
    }
    return total / static_cast<double>(exact.rows());
}

} // namespace dota
