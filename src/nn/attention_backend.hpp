/**
 * @file
 * Pluggable attention-execution backends (DESIGN.md §13).
 *
 * MultiHeadAttention::forward used to hard-code two execution paths
 * (dense, CSR-sparse). This layer factors each path into an
 * AttentionBackend so new paths (the tiled streaming kernel here;
 * int8/ITA-style or token-routing paths later) slot in without touching
 * every caller:
 *
 *  - DenseBackend: full n x n scores + masked softmax + dense A*V, or
 *    for a hook-free causal head only the visible triangle
 *    (denseCausalHead). The only backend that materializes S and A —
 *    required whenever a hook needs full scores (training) or
 *    measurement code forces it. Bit-identical to the pre-refactor
 *    dense path (S above the diagonal excepted on the triangle).
 *  - SparseRowsBackend: CSR kernels of tensor/sparse_ops.hpp; scores
 *    only at mask-kept coordinates, bit-identical to the dense masked
 *    path at those coordinates. Needs a hook-selected mask.
 *  - StreamingBackend: tiled online-softmax kernel of
 *    tensor/streaming_attention.hpp; O(tile) score memory per thread,
 *    mask-kept tiles only. Matches dense within pinned tolerances.
 *  - Int8Backend: dynamically-quantized integer attention — u8 x s8
 *    maddubs GEMMs (tensor/int8_gemm.hpp) with ITA-style integer
 *    softmax (tensor/int_softmax.hpp); per-head scales from the live
 *    Q/K/V tensors. Opt-in only (never auto); quantization-level
 *    numerics. The calibrated end-to-end path lives in
 *    nn/int8_infer.hpp — this backend is the drop-in experiment knob.
 *
 * Selection is runtime-dispatched per head by resolveAttnBackend()
 * from: the hook's wantsFullScores() / setForceDense (hard dense
 * requirements), the sequence length (long contexts auto-stream), and
 * the DOTA_ATTN=auto|dense|sparse|streaming|int8 override (env or CLI,
 * mirroring DOTA_SIMD). Overrides never win over a hard dense
 * requirement and never select an illegal backend — they degrade to
 * dense, so DOTA_ATTN can be flipped under the whole test suite.
 */
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "tensor/gemm_kernels.hpp"
#include "tensor/int8_gemm.hpp"
#include "tensor/int_softmax.hpp"
#include "tensor/matrix.hpp"
#include "tensor/sparse_mask.hpp"
#include "tensor/streaming_attention.hpp"

namespace dota {

/** The attention execution paths. */
enum class AttnBackendKind { Dense, Sparse, Streaming, Int8 };

/** User-facing backend selection (DOTA_ATTN / --attn). */
enum class AttnChoice { Auto, Dense, Sparse, Streaming, Int8 };

/** Sequence length at or above which auto-selection streams. */
constexpr size_t kStreamingAutoSeqLen = 4096;

/** Stable lowercase name ("dense" / "sparse" / "streaming" / "int8"). */
const char *attnBackendName(AttnBackendKind kind);

/** Stable lowercase name, including "auto". */
const char *attnChoiceName(AttnChoice choice);

/**
 * Parse a DOTA_ATTN / --attn value. Returns false (leaving @p out
 * untouched) for anything outside auto|dense|sparse|streaming|int8.
 */
bool parseAttnChoice(const std::string &v, AttnChoice &out);

/**
 * The process-wide backend choice: the last setAttnChoice() value, or
 * on first use the DOTA_ATTN environment variable (unknown values warn
 * on stderr and degrade to auto, like DOTA_SIMD; the CLI validates
 * before this point and exits instead).
 */
AttnChoice attnChoice();

/** Override the process-wide choice (CLI --attn, tests). */
void setAttnChoice(AttnChoice choice);

/**
 * RAII pin of the process-wide choice. Tests asserting properties of
 * one specific backend (e.g. the sparse path's bitwise identity, the
 * dense incremental-decode equivalence) wrap their forwards in this so
 * they keep testing that backend under any DOTA_ATTN CI value.
 */
class ScopedAttnChoice
{
  public:
    explicit ScopedAttnChoice(AttnChoice choice) : prev_(attnChoice())
    {
        setAttnChoice(choice);
    }
    ~ScopedAttnChoice() { setAttnChoice(prev_); }
    ScopedAttnChoice(const ScopedAttnChoice &) = delete;
    ScopedAttnChoice &operator=(const ScopedAttnChoice &) = delete;

  private:
    AttnChoice prev_;
};

/** Print the backend table (one row per --attn value) to @p os. */
void listAttnBackends(std::ostream &os);

/**
 * Pick the backend for one head.
 *
 * Hard requirements first: a hook that wants full scores or a
 * force-dense probe always gets Dense (S and A must exist). Otherwise
 * the choice applies where legal: Sparse needs a hook mask; Streaming
 * needs either an inference hook or — hook-free — a long sequence
 * (n >= kStreamingAutoSeqLen), so short hook-free forwards keep their
 * dense S/A probes and backward path under any DOTA_ATTN value. Auto
 * streams long sequences, takes the CSR path when a hook mask exists,
 * and stays dense otherwise.
 *
 * @param choice            attnChoice() or an explicit override
 * @param has_hook          a hook is installed
 * @param wants_full_scores hook_->wantsFullScores() (false when no hook)
 * @param force_dense       setForceDense(true) is active
 * @param has_hook_mask     the hook selected a non-empty mask
 * @param n                 sequence length (query rows)
 */
AttnBackendKind resolveAttnBackend(AttnChoice choice, bool has_hook,
                                   bool wants_full_scores, bool force_dense,
                                   bool has_hook_mask, size_t n);

/** One head's inputs, prepared by MultiHeadAttention::forward. */
struct AttnHeadProblem
{
    const Matrix *q = nullptr; ///< queries, n x dh
    const Matrix *k = nullptr; ///< keys,    n x dh
    const Matrix *v = nullptr; ///< values,  n x dh
    float scale = 1.0f;        ///< 1/sqrt(d_k)

    /**
     * Dense keep mask for the dense and int8 backends (a hook mask, or
     * the cached causal triangle when a hook needs the full square);
     * nullptr/empty = no mask. A mask wins over @c causal: those
     * backends then compute the full n x n square under it.
     */
    const Matrix *dense_mask = nullptr;

    /**
     * Hook mask in sparse form for the sparse/streaming backends;
     * nullptr when the hook kept everything (dense semantics).
     */
    const SparseMask *sparse_mask = nullptr;

    /**
     * Implicit causal bound: row i attends to keys [0, i] only. The
     * streaming backend skips tiles past the diagonal; with no
     * dense_mask the dense and int8 backends compute only the visible
     * triangle (denseCausalHead, int8AttentionHead). False whenever a
     * hook mask is present — a hook mask replaces the causal
     * constraint.
     */
    bool causal = false;

    size_t tile = kStreamingAttnTile; ///< streaming KV-tile width
};

/**
 * One head's outputs. scores/probs are filled by Dense only; after a
 * causal triangle (denseCausalHead) their upper triangles are zero.
 */
struct AttnHeadResult
{
    Matrix z;      ///< context, n x dh
    Matrix scores; ///< raw S = QK^T (dense backend only)
    Matrix probs;  ///< attention probabilities A (dense backend only)
};

/** Stateless execution strategy for one attention head. */
class AttentionBackend
{
  public:
    virtual ~AttentionBackend() = default;

    virtual AttnBackendKind kind() const = 0;
    const char *name() const { return attnBackendName(kind()); }

    /**
     * True when runHead() materializes scores/probs — the probe
     * accessors lastScores()/lastAttention() are a capability of the
     * backend, not of the layer: only capturing backends feed them
     * (and trigger the hook's observeScores()).
     */
    virtual bool capturesScores() const = 0;

    virtual AttnHeadResult runHead(const AttnHeadProblem &p) const = 0;
};

/** The singleton backend instance for @p kind. */
const AttentionBackend &attentionBackend(AttnBackendKind kind);

/**
 * The dense backend's causal head without a mask: only the visible
 * triangle is computed. Row i gets scores S[i, 0..i] (dot family),
 * softmax over that prefix (scaledSoftmaxRow) and z[i] folded over
 * p <= i (broadcast-FMA, matmulRows' causal extent), in row blocks that
 * forCausalRowBlocks balances across threads. Every computed element
 * follows its documented fold and the skipped terms are exact zeros,
 * so z, A and the lower triangle of S equal the full-square masked
 * path bit for bit on finite inputs, at every ISA and thread count;
 * S's and A's upper triangles stay zero. Non-finite values in a later
 * token's K/V no longer reach earlier rows (coordinates are skipped,
 * not multiplied by zero). @p kt selects the kernel table (tests pin
 * both); q, k, v must be n x dh, n x dh, n x dh.
 */
AttnHeadResult denseCausalHead(const Matrix &q, const Matrix &k,
                               const Matrix &v, float scale,
                               const GemmKernelTable &kt =
                                   activeGemmKernels());

/**
 * The integer attention head shared by the int8 backend and the
 * calibrated int8 forward (nn/int8_infer.hpp): raw s32 scores q k^T
 * with zero-point compensation, integer softmax through @p lut, then
 * probabilities x vt^T dequantized at lut.probScale() * vt.scale.
 *
 * With @p keep (a 0/1 keep mask) or neither keep nor @p causal, every
 * row spans all t = k.rows keys. With @p causal and no @p keep, row i
 * only computes scores and softmax over keys [0, i] and folds the A*V
 * sum over them — the integer twin of denseCausalHead, exact by s32
 * arithmetic, so the output equals the full-square masked sequence
 * bit for bit. Row blocks run in parallel (forRowBlocks, or
 * forCausalRowBlocks for the triangle) with block-local buffers.
 *
 * @param scores when non-null, receives the n x t raw compensated
 *               scores (full square only; hooks observing S).
 * @param kt     kernel table (tests pin both).
 */
Matrix int8AttentionHead(const U8Tensor &q, const Int8Tensor &k,
                         const Int8Tensor &vt, const IntSoftmaxLut &lut,
                         const Matrix *keep, bool causal,
                         std::vector<int32_t> *scores = nullptr,
                         const GemmKernelTable &kt = activeGemmKernels());

} // namespace dota
