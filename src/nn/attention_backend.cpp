/**
 * @file
 * Implementation of the attention backends and their dispatch policy.
 */
#include "nn/attention_backend.hpp"

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

/** Full scores + masked softmax + dense A*V (the pre-refactor path). */
class DenseBackend final : public AttentionBackend
{
  public:
    AttnBackendKind kind() const override { return AttnBackendKind::Dense; }
    bool capturesScores() const override { return true; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        AttnHeadResult r;
        // Raw scores S = Q K^T (pre-scaling, matching Eq. 5's target).
        r.scores = matmulBT(*p.q, *p.k);
        const Matrix scaled = scale(r.scores, p.scale);
        const bool masked = p.dense_mask && !p.dense_mask->empty();
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
 * mask contract matches Dense (a dense 0/1 keep mask covering both the
 * hook mask and the causal triangle).
 */
class Int8Backend final : public AttentionBackend
{
  public:
    AttnBackendKind kind() const override { return AttnBackendKind::Int8; }
    bool capturesScores() const override { return false; }

    AttnHeadResult
    runHead(const AttnHeadProblem &p) const override
    {
        const size_t n = p.q->rows();
        const size_t t = p.k->rows();
        // Per-head dynamic scales: 7-bit grid for the u8 query side,
        // full s8 for keys/values (saturation-free maddubs operands).
        const U8Tensor qq =
            quantizeU8(*p.q, chooseSymmetricScale(*p.q, 7).scale);
        const Int8Tensor kk =
            quantizeS8(*p.k, chooseSymmetricScale(*p.k, 8).scale);
        const Int8Tensor vt = quantizeS8Transposed(
            *p.v, chooseSymmetricScale(*p.v, 8).scale);

        std::vector<int32_t> raw(n * t);
        int8GemmBT(qq, kk, raw.data());

        const IntSoftmaxLut lut(qq.scale * kk.scale * p.scale);
        const bool masked = p.dense_mask && !p.dense_mask->empty();
        U8Tensor probs;
        probs.rows = n;
        probs.k = t;
        probs.scale = lut.probScale();
        probs.zero_point = 0;
        probs.codes.resize(n * t);
        forRowBlocks(n, t, [&](size_t r0, size_t r1) {
            std::vector<uint32_t> scratch(t);
            for (size_t i = r0; i < r1; ++i)
                lut.softmaxRow(raw.data() + i * t, t,
                               masked ? p.dense_mask->row(i) : nullptr,
                               probs.codes.data() + i * t, scratch);
        });

        AttnHeadResult r;
        r.z = int8MatmulBT(probs, vt);
        return r;
    }
};

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

} // namespace dota
