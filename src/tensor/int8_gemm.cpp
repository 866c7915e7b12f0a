/**
 * @file
 * Implementation of the int8 tensor types and the threaded GEMM driver.
 */
#include "tensor/int8_gemm.hpp"

#include <algorithm>
#include <cmath>

#include "common/thread_pool.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace dota {

namespace {

/** Saturating round onto [-qmax, qmax]; NaN -> 0 (see quant.cpp). */
inline int
roundCode(float x, float inv_scale, int qmax)
{
    const float v = x * inv_scale;
    if (std::isnan(v))
        return 0;
    if (v >= static_cast<float>(qmax))
        return qmax;
    if (v <= static_cast<float>(-qmax))
        return -qmax;
    return static_cast<int>(std::lround(v));
}

inline float
safeInvScale(float scale)
{
    return (std::isfinite(scale) && scale > 0.0f) ? 1.0f / scale : 1.0f;
}

} // namespace

void
Int8Tensor::appendRow(const float *x, size_t n)
{
    DOTA_ASSERT(k == 0 || n == k, "appendRow width {} != {}", n, k);
    k = n;
    const float inv = safeInvScale(scale);
    int32_t sum = 0;
    for (size_t p = 0; p < n; ++p) {
        const int code = roundCode(x[p], inv, kS8Qmax);
        codes.push_back(static_cast<int8_t>(code));
        sum += code;
    }
    row_sums.push_back(sum);
    ++rows;
}

/*
 * The quantizers below and the int8MatmulBT epilogue split by output
 * rows (forRowBlocks / the GEMM's row blocks): each code, row sum and
 * output element is written by exactly one chunk with unchanged
 * per-element arithmetic, so the bits match serial execution.
 */

Int8Tensor
quantizeS8(const Matrix &m, float scale)
{
    Int8Tensor t;
    t.rows = m.rows();
    t.k = m.cols();
    t.scale = scale;
    t.codes.resize(t.rows * t.k);
    t.row_sums.resize(t.rows);
    const float inv = safeInvScale(scale);
    forRowBlocks(t.rows, t.k, [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            const float *src = m.row(r);
            int8_t *dst = t.codes.data() + r * t.k;
            int32_t sum = 0;
            for (size_t p = 0; p < t.k; ++p) {
                const int code = roundCode(src[p], inv, kS8Qmax);
                dst[p] = static_cast<int8_t>(code);
                sum += code;
            }
            t.row_sums[r] = sum;
        }
    });
    return t;
}

Int8Tensor
quantizeS8Transposed(const Matrix &m, float scale)
{
    Int8Tensor t;
    t.rows = m.cols();
    t.k = m.rows();
    t.scale = scale;
    t.codes.resize(t.rows * t.k);
    t.row_sums.resize(t.rows);
    const float inv = safeInvScale(scale);
    // Codes split by rows of m (contiguous reads; code p of every
    // output row), then row sums by output rows: two passes that each
    // write every element once, where one split by output rows would
    // read m in strided columns.
    forRowBlocks(t.k, t.rows, [&](size_t p0, size_t p1) {
        for (size_t p = p0; p < p1; ++p) {
            const float *src = m.row(p);
            for (size_t r = 0; r < t.rows; ++r)
                t.codes[r * t.k + p] =
                    static_cast<int8_t>(roundCode(src[r], inv, kS8Qmax));
        }
    });
    forRowBlocks(t.rows, t.k, [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
            int32_t sum = 0;
            for (size_t p = 0; p < t.k; ++p)
                sum += t.codes[r * t.k + p];
            t.row_sums[r] = sum;
        }
    });
    return t;
}

U8Tensor
quantizeU8(const Matrix &m, float scale)
{
    U8Tensor t;
    t.rows = m.rows();
    t.k = m.cols();
    t.scale = scale;
    t.zero_point = kU8ZeroPoint;
    t.codes.resize(t.rows * t.k);
    const float inv = safeInvScale(scale);
    forRowBlocks(t.rows, t.k, [&](size_t r0, size_t r1) {
        for (size_t i = r0 * t.k; i < r1 * t.k; ++i)
            t.codes[i] = static_cast<uint8_t>(
                roundCode(m.data()[i], inv, kU8ActQmax) + kU8ZeroPoint);
    });
    return t;
}

Matrix
dequantize(const U8Tensor &a)
{
    Matrix m(a.rows, a.k);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(static_cast<int>(a.codes[i]) -
                                         a.zero_point) *
                      a.scale;
    return m;
}

Matrix
dequantize(const Int8Tensor &b)
{
    Matrix m(b.rows, b.k);
    for (size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(b.codes[i]) * b.scale;
    return m;
}

namespace {

/** s32 elements of int8MatmulBT's per-chunk buffer (32 KB, L1/L2). */
constexpr size_t kEpilogueInts = 8192;

/**
 * Run @p fn over output row blocks of the m x k x n integer GEMM: one
 * inline call below the float GEMMs' MAC threshold, else parallelFor
 * with their row grain.
 */
template <typename Fn>
void
int8RowBlocks(size_t m, size_t k, size_t n, Fn &&fn)
{
    if (static_cast<uint64_t>(m) * k * n < gemmParallelMacThreshold())
        fn(0, m);
    else
        parallelFor(0, m,
                    std::max<size_t>(
                        1, m / (4 * ThreadPool::globalConcurrency())),
                    fn);
}

/**
 * Raw zero-point-compensated GEMM rows [i0, i1), written to @p c as
 * i1 - i0 rows of b.rows values (c points at row i0's storage).
 */
void
int8GemmRows(const U8Tensor &a, const Int8Tensor &b, int32_t *c,
             size_t i0, size_t i1)
{
    const size_t k = a.k, n = b.rows;
    activeGemmKernels().int8GemmBTRows(a.row(i0), k, b.codes.data(), k, c,
                                       n, k, n, 0, i1 - i0);
    const int zp = a.zero_point;
    if (zp != 0)
        for (size_t i = 0; i < i1 - i0; ++i) {
            int32_t *crow = c + i * n;
            for (size_t j = 0; j < n; ++j)
                crow[j] -= zp * b.row_sums[j];
        }
}

void
checkInt8Gemm(const U8Tensor &a, const Int8Tensor &b)
{
    DOTA_ASSERT(a.k == b.k, "int8GemmBT {}x{} * {}x{}^T", a.rows, a.k,
                b.rows, b.k);
    // s32 headroom: k products of magnitude <= 127*127 must fit.
    DOTA_ASSERT(a.k <= (1ull << 31) / (127ull * 127ull),
                "int8GemmBT: k = {} overflows s32 accumulation", a.k);
}

} // namespace

void
int8GemmBT(const U8Tensor &a, const Int8Tensor &b, int32_t *c)
{
    checkInt8Gemm(a, b);
    // Each output row is written by exactly one chunk, and s32
    // arithmetic is exact, so any thread count produces identical bits.
    int8RowBlocks(a.rows, a.k, b.rows, [&](size_t i0, size_t i1) {
        int8GemmRows(a, b, c + i0 * b.rows, i0, i1);
    });
}

Matrix
int8MatmulBT(const U8Tensor &a, const Int8Tensor &b, const Matrix *bias)
{
    checkInt8Gemm(a, b);
    if (bias != nullptr)
        DOTA_ASSERT(bias->rows() == 1 && bias->cols() == b.rows,
                    "int8MatmulBT bias {} for {} outputs",
                    bias->shapeStr(), b.rows);
    const size_t n = b.rows;
    const float out_scale = a.scale * b.scale;
    const float *bias_row = bias != nullptr ? bias->data() : nullptr;
    Matrix c(a.rows, n);
    // The dequant + bias epilogue runs in the GEMM's own row blocks, a
    // few rows at a time through a small chunk-local s32 buffer, while
    // those rows are still in cache.
    const size_t step =
        std::max<size_t>(2, kEpilogueInts / std::max<size_t>(n, 1));
    int8RowBlocks(a.rows, a.k, n, [&](size_t i0, size_t i1) {
        std::vector<int32_t> raw(std::min(step, i1 - i0) * n);
        for (size_t s0 = i0; s0 < i1; s0 += step) {
            const size_t s1 = std::min(i1, s0 + step);
            int8GemmRows(a, b, raw.data(), s0, s1);
            for (size_t i = s0; i < s1; ++i) {
                const int32_t *rrow = raw.data() + (i - s0) * n;
                float *crow = c.row(i);
                for (size_t j = 0; j < n; ++j) {
                    float v = static_cast<float>(rrow[j]) * out_scale;
                    if (bias_row != nullptr)
                        v += bias_row[j];
                    crow[j] = v;
                }
            }
        }
    });
    return c;
}

int32_t
int8DotCompensated(const uint8_t *a, int zero_point, const Int8Tensor &b,
                   size_t j, size_t k)
{
    DOTA_ASSERT(j < b.rows && k == b.k, "int8DotCompensated row {}", j);
    const int32_t raw = activeGemmKernels().int8Dot(a, b.row(j), k);
    return raw - zero_point * b.row_sums[j];
}

} // namespace dota
