/**
 * @file
 * Implementation of the attention backends and their dispatch policy.
 */
#include "nn/attention_backend.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

#include "common/env.hpp"
#include "tensor/int8_gemm.hpp"
#include "tensor/int_softmax.hpp"
#include "tensor/ops.hpp"
#include "tensor/quant.hpp"
#include "tensor/sparse_ops.hpp"

namespace dota {

namespace {

AttnChoice
resolveChoiceFromEnv()
{
    const std::string v = envString("DOTA_ATTN", "auto");
    AttnChoice c = AttnChoice::Auto;
    if (!v.empty() && !parseAttnChoice(v, c))
        std::fprintf(stderr,
                     "dota: unknown DOTA_ATTN value '%s' (expected "
                     "auto|dense|sparse|streaming|int8); using auto\n",
                     v.c_str());
    return c;
}

AttnChoice &
choiceSlot()
{
    static AttnChoice c = resolveChoiceFromEnv();
    return c;
}

/**
 * Full scores + masked softmax + dense A*V (the pre-refactor path);
 * a hook-free causal head computes only the visible triangle.
 */
class DenseBackend final : public AttentionBackend
{
  public:
    AttnBackendKind kind() const override { return AttnBackendKind::Dense; }
    bool capturesScores() const override { return true; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        const bool masked = p.dense_mask && !p.dense_mask->empty();
        if (!masked && p.causal)
            return denseCausalHead(*p.q, *p.k, *p.v, p.scale);
        AttnHeadResult r;
        // Raw scores S = Q K^T (pre-scaling, matching Eq. 5's target).
        r.scores = matmulBT(*p.q, *p.k);
        const Matrix scaled = scale(r.scores, p.scale);
        r.probs = masked ? rowSoftmaxMasked(scaled, *p.dense_mask)
                         : rowSoftmax(scaled);
        r.z = matmul(r.probs, *p.v);
        return r;
    }
};

/** CSR kernels at mask-kept coordinates (tensor/sparse_ops.hpp). */
class SparseRowsBackend final : public AttentionBackend
{
  public:
    AttnBackendKind kind() const override { return AttnBackendKind::Sparse; }
    bool capturesScores() const override { return false; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        DOTA_ASSERT(p.sparse_mask,
                    "sparse backend dispatched without a hook mask");
        AttnHeadResult r;
        r.z = sparseMaskedAttention(*p.q, *p.k, *p.v, *p.sparse_mask,
                                    p.scale);
        return r;
    }
};

/** Tiled online-softmax kernel (tensor/streaming_attention.hpp). */
class StreamingBackend final : public AttentionBackend
{
  public:
    AttnBackendKind
    kind() const override
    {
        return AttnBackendKind::Streaming;
    }
    bool capturesScores() const override { return false; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        AttnHeadResult r;
        r.z = streamingAttention(*p.q, *p.k, *p.v, p.sparse_mask, p.causal,
                                 p.scale, p.tile);
        return r;
    }
};

/**
 * Dynamically-quantized integer attention: per-head scales from the
 * live tensors, u8 x s8 maddubs GEMMs, ITA-style integer softmax. The
 * mask contract matches Dense (a dense 0/1 keep mask, or the causal
 * triangle when there is none).
 */
class Int8Backend final : public AttentionBackend
{
  public:
    AttnBackendKind kind() const override { return AttnBackendKind::Int8; }
    bool capturesScores() const override { return false; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        // Per-head dynamic scales: 7-bit grid for the u8 query side,
        // full s8 for keys/values (saturation-free maddubs operands).
        const U8Tensor qq =
            quantizeU8(*p.q, chooseSymmetricScale(*p.q, 7).scale);
        const Int8Tensor kk =
            quantizeS8(*p.k, chooseSymmetricScale(*p.k, 8).scale);
        const Int8Tensor vt = quantizeS8Transposed(
            *p.v, chooseSymmetricScale(*p.v, 8).scale);
        const IntSoftmaxLut lut(qq.scale * kk.scale * p.scale);
        const bool masked = p.dense_mask && !p.dense_mask->empty();
        AttnHeadResult r;
        r.z = int8AttentionHead(qq, kk, vt, lut,
                                masked ? p.dense_mask : nullptr, p.causal);
        return r;
    }
};

/**
 * Query rows per step of the int8 head: the step's s32 scores, u8
 * probabilities and A*V sums stay cache-sized, and a causal step folds
 * at most this many rows' worth of zeros past the diagonal.
 */
constexpr size_t kInt8HeadRows = 16;

} // namespace

const char *
attnBackendName(AttnBackendKind kind)
{
    switch (kind) {
    case AttnBackendKind::Sparse:
        return "sparse";
    case AttnBackendKind::Streaming:
        return "streaming";
    case AttnBackendKind::Int8:
        return "int8";
    case AttnBackendKind::Dense:
        break;
    }
    return "dense";
}

const char *
attnChoiceName(AttnChoice choice)
{
    switch (choice) {
    case AttnChoice::Dense:
        return "dense";
    case AttnChoice::Sparse:
        return "sparse";
    case AttnChoice::Streaming:
        return "streaming";
    case AttnChoice::Int8:
        return "int8";
    case AttnChoice::Auto:
        break;
    }
    return "auto";
}

bool
parseAttnChoice(const std::string &v, AttnChoice &out)
{
    if (v == "auto")
        out = AttnChoice::Auto;
    else if (v == "dense")
        out = AttnChoice::Dense;
    else if (v == "sparse")
        out = AttnChoice::Sparse;
    else if (v == "streaming")
        out = AttnChoice::Streaming;
    else if (v == "int8")
        out = AttnChoice::Int8;
    else
        return false;
    return true;
}

AttnChoice
attnChoice()
{
    return choiceSlot();
}

void
setAttnChoice(AttnChoice choice)
{
    choiceSlot() = choice;
}

void
listAttnBackends(std::ostream &os)
{
    os << "attention backends (DOTA_ATTN / --attn):\n"
       << "  auto       pick per head: streaming at n >= "
       << kStreamingAutoSeqLen
       << ", sparse when an inference hook masks, else dense\n"
       << "  dense      full n x n scores; S/A probes and backward; "
          "O(n^2) score memory\n"
       << "  sparse     CSR kernels at mask-kept coordinates; needs a "
          "hook mask; O(nnz) score memory\n"
       << "  streaming  tiled online softmax; O(tile) scores per "
          "thread; 32k+ contexts; tolerance-level numerics\n"
       << "  int8       dynamically-quantized u8 x s8 attention with "
          "integer softmax; opt-in only; quantization-level numerics\n";
}

AttnBackendKind
resolveAttnBackend(AttnChoice choice, bool has_hook, bool wants_full_scores,
                   bool force_dense, bool has_hook_mask, size_t n)
{
    // Hard dense requirements: probes and training hooks need S and A
    // materialized; no override may take them away.
    if (force_dense || (has_hook && wants_full_scores))
        return AttnBackendKind::Dense;

    // Streaming drops the S/A probes; hook-free short forwards keep
    // them (and their backward path) under any DOTA_ATTN value.
    const bool streaming_legal = has_hook || n >= kStreamingAutoSeqLen;

    switch (choice) {
    case AttnChoice::Dense:
        return AttnBackendKind::Dense;
    case AttnChoice::Sparse:
        return has_hook_mask ? AttnBackendKind::Sparse
                             : AttnBackendKind::Dense;
    case AttnChoice::Streaming:
        return streaming_legal ? AttnBackendKind::Streaming
                               : AttnBackendKind::Dense;
    case AttnChoice::Int8:
        // Same legality rule as streaming: the integer path drops S/A
        // probes and backward, so hook-free short forwards stay dense
        // (the full test suite remains green under DOTA_ATTN=int8).
        return streaming_legal ? AttnBackendKind::Int8
                               : AttnBackendKind::Dense;
    case AttnChoice::Auto:
        break;
    }
    if (n >= kStreamingAutoSeqLen)
        return AttnBackendKind::Streaming;
    if (has_hook_mask)
        return AttnBackendKind::Sparse;
    return AttnBackendKind::Dense;
}

const AttentionBackend &
attentionBackend(AttnBackendKind kind)
{
    static const DenseBackend dense;
    static const SparseRowsBackend sparse;
    static const StreamingBackend streaming;
    static const Int8Backend int8;
    switch (kind) {
    case AttnBackendKind::Sparse:
        return sparse;
    case AttnBackendKind::Streaming:
        return streaming;
    case AttnBackendKind::Int8:
        return int8;
    case AttnBackendKind::Dense:
        break;
    }
    return dense;
}

AttnHeadResult
denseCausalHead(const Matrix &q, const Matrix &k, const Matrix &v,
                float scale, const GemmKernelTable &kt)
{
    const size_t n = q.rows();
    DOTA_ASSERT(k.rows() == n && v.rows() == n && q.cols() == k.cols(),
                "causal head q {} k {} v {}", q.shapeStr(), k.shapeStr(),
                v.shapeStr());
    AttnHeadResult r;
    r.scores = Matrix(n, n);
    r.probs = Matrix(n, n);
    r.z = Matrix(n, v.cols());
    forCausalRowBlocks(n, [&](size_t r0, size_t r1) {
        for (size_t i = r0; i < r1; ++i) {
            kt.matmulBTRows(q, k, r.scores.data(), n, i + 1, i, i + 1);
            scaledSoftmaxRow(r.scores.row(i), scale, i + 1, r.probs.row(i));
        }
        kt.matmulRows(r.probs.data(), n, v, r.z, r0, r1, n, true);
    });
    return r;
}

Matrix
int8AttentionHead(const U8Tensor &q, const Int8Tensor &k,
                  const Int8Tensor &vt, const IntSoftmaxLut &lut,
                  const Matrix *keep, bool causal,
                  std::vector<int32_t> *scores, const GemmKernelTable &kt)
{
    const size_t n = q.rows, t = k.rows, dh = vt.rows;
    const bool triangle = causal && keep == nullptr;
    DOTA_ASSERT(q.k == k.k && vt.k == t && (!triangle || n == t),
                "int8 head q {}x{} k {}x{} vt {}x{}", n, q.k, t, k.k, dh,
                vt.k);
    DOTA_ASSERT(scores == nullptr || !triangle,
                "int8 head: full scores requested from the causal triangle");
    if (scores != nullptr)
        scores->assign(n * t, 0);
    Matrix z(n, dh);
    const float out_scale = lut.probScale() * vt.scale;
    // Rows [r0, r1) in steps of kInt8HeadRows: a step's rows see at most
    // its last row + 1 keys on the triangle, all t otherwise.
    auto block = [&](size_t r0, size_t r1) {
        const size_t step = std::min(kInt8HeadRows, r1 - r0);
        const size_t width = triangle ? r1 : t;
        std::vector<int32_t> local(scores != nullptr ? 0 : step * width);
        std::vector<uint8_t> probs(step * width);
        std::vector<uint32_t> scratch(width);
        std::vector<int32_t> acc(step * dh);
        for (size_t s0 = r0; s0 < r1; s0 += step) {
            const size_t s1 = std::min(r1, s0 + step);
            const size_t rows = s1 - s0;
            const size_t cols = triangle ? s1 : t;
            int32_t *raw = scores != nullptr ? scores->data() + s0 * t
                                             : local.data();
            const size_t ldr = scores != nullptr ? t : cols;
            kt.int8GemmBTRows(q.row(s0), q.k, k.codes.data(), k.k, raw, ldr,
                              q.k, cols, 0, rows);
            if (q.zero_point != 0)
                for (size_t i = 0; i < rows; ++i)
                    for (size_t j = 0; j < cols; ++j)
                        raw[i * ldr + j] -= q.zero_point * k.row_sums[j];
            // Probabilities past a row's visible prefix are zero, so the
            // step-wide A*V fold below adds only exact zeros for them.
            std::fill(probs.begin(), probs.begin() + rows * cols, 0);
            for (size_t i = s0; i < s1; ++i)
                lut.softmaxRow(raw + (i - s0) * ldr, triangle ? i + 1 : t,
                               keep != nullptr ? keep->row(i) : nullptr,
                               probs.data() + (i - s0) * cols, scratch);
            kt.int8GemmBTRows(probs.data(), cols, vt.codes.data(), vt.k,
                              acc.data(), dh, cols, dh, 0, rows);
            for (size_t i = 0; i < rows; ++i) {
                float *zrow = z.row(s0 + i);
                for (size_t c = 0; c < dh; ++c)
                    zrow[c] = static_cast<float>(acc[i * dh + c]) * out_scale;
            }
        }
    };
    if (triangle)
        forCausalRowBlocks(n, block);
    else
        forRowBlocks(n, t, block);
    return z;
}

} // namespace dota
