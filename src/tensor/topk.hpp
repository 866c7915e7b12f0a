/**
 * @file
 * Row-wise top-k selection and thresholding over score matrices.
 *
 * These kernels implement the Detector's selection step (Section 3.1):
 * given (estimated) attention scores, keep the k largest entries per row —
 * the row-balance constraint of Section 4.3 falls out naturally because
 * every row keeps exactly k connections — or compare against a preset
 * threshold as the hardware comparator does.
 */
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/matrix.hpp"

namespace dota {

/*
 * Every selection below ranks a row's entries in one order: value
 * descending, NaN below every number (including -Inf), ties broken by
 * ascending column (+0 and -0 tie). The kept set is the first
 * min(k, visible) entries of that order.
 */

/** Indices of the k largest entries of row @p r, in ascending order. */
std::vector<uint32_t> rowTopK(const Matrix &scores, size_t r, size_t k);

/**
 * Caller-owned working space of selectRowTopK. It grows to the widest
 * row on first use, so a loop over rows (one scratch per chunk)
 * allocates once.
 */
struct TopkScratch
{
    std::vector<float> values;    ///< candidates for the k-th value
    std::vector<uint8_t> buckets; ///< per-column value-histogram bucket
};

/**
 * Write the 0/1 selection of row[0, visible) into mask_row[0, visible):
 * 1 for the min(k, visible) columns the selection order keeps, 0 for
 * the rest; entries from @p visible on are left untouched.
 */
void selectRowTopK(const float *row, size_t visible, size_t k,
                   TopkScratch &scratch, float *mask_row);

/**
 * Row-balanced top-k selection: a 0/1 mask with exactly
 * min(k, cols) ones per row. This is the DOTA selection rule. Rows are
 * selected in parallel above rowParallelElemThreshold() elements.
 */
Matrix topkMask(const Matrix &scores, size_t k);

/**
 * Causal variant: row i may only select from columns 0..i. Each row keeps
 * min(k, i+1) connections (decoder processing, Section 4.4).
 */
Matrix topkMaskCausal(const Matrix &scores, size_t k);

/** Unbalanced thresholding: keep entries with score >= threshold. */
Matrix thresholdMask(const Matrix &scores, float threshold);

/**
 * Find the global threshold whose mask retains approximately
 * @p retention * size entries (used to map retention ratios onto the
 * hardware comparator's preset threshold).
 */
float thresholdForRetention(const Matrix &scores, double retention);

/** Fraction of nonzero entries in a 0/1 mask. */
double maskDensity(const Matrix &mask);

/** Number of nonzeros in row @p r of a 0/1 mask. */
size_t maskRowCount(const Matrix &mask, size_t r);

/**
 * Detection quality metric: average over rows of
 * |selected ∩ true top-k| / k, where "true" is taken from @p exact scores
 * and "selected" from @p mask.
 */
double topkRecall(const Matrix &exact, const Matrix &mask, size_t k);

/**
 * Attention-mass recall: the fraction of each row's true softmax
 * probability mass that falls on selected connections, averaged over
 * rows. @p scaled_scores must already include the 1/sqrt(d_k) factor.
 * This is the quantity omission actually loses — strict top-k overlap
 * over-penalizes ties among near-uniform weak connections.
 */
double attentionMassRecall(const Matrix &scaled_scores, const Matrix &mask);

} // namespace dota
