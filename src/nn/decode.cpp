/**
 * @file
 * Implementation of incremental decoding.
 */
#include "nn/decode.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "common/crc32.hpp"
#include "nn/attention_backend.hpp"
#include "tensor/gemm_kernels.hpp"
#include "tensor/streaming_attention.hpp"
#include "tensor/topk.hpp"

namespace dota {

void
KvCache::append(const Matrix &k_row, const Matrix &v_row)
{
    DOTA_ASSERT(k_row.rows() == 1 && v_row.rows() == 1,
                "cache rows must be single vectors");
    DOTA_ASSERT(k.empty() || (k_row.cols() == k.cols() &&
                              v_row.cols() == v.cols()),
                "cache rows of width {}/{} do not match the {}/{}-wide "
                "cache",
                k_row.cols(), v_row.cols(), k.cols(), v.cols());
    if (k.empty())
        mass.clear();
    k.appendRow(k_row.data(), k_row.cols());
    v.appendRow(v_row.data(), v_row.cols());
    mass.push_back(0.0);
}

size_t
evictWeak(KvCache &cache, size_t keep)
{
    const size_t t = cache.length();
    DOTA_ASSERT(cache.mass.size() == t,
                "attention-mass telemetry out of sync with cache");
    if (keep >= t || t == 0)
        return 0;
    DOTA_ASSERT(keep >= 1, "eviction must keep at least one entry");

    // Survivors: the `keep` highest-mass positions, older position
    // winning ties, compacted back in original (causal) order.
    std::vector<size_t> order(t);
    for (size_t i = 0; i < t; ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        if (cache.mass[a] != cache.mass[b])
            return cache.mass[a] > cache.mass[b];
        return a < b;
    });
    order.resize(keep);
    std::sort(order.begin(), order.end());

    Matrix nk(keep, cache.k.cols());
    Matrix nv(keep, cache.v.cols());
    std::vector<double> nm(keep);
    for (size_t i = 0; i < keep; ++i) {
        const size_t src = order[i];
        std::copy(cache.k.row(src), cache.k.row(src) + cache.k.cols(),
                  nk.row(i));
        std::copy(cache.v.row(src), cache.v.row(src) + cache.v.cols(),
                  nv.row(i));
        nm[i] = cache.mass[src];
    }
    cache.k = std::move(nk);
    cache.v = std::move(nv);
    cache.mass = std::move(nm);
    return t - keep;
}

size_t
evictWeak(DecodeState &state, double keep_fraction)
{
    DOTA_ASSERT(keep_fraction > 0.0 && keep_fraction <= 1.0,
                "keep_fraction must be in (0, 1]");
    size_t evicted = 0;
    for (KvCache &cache : state.layers) {
        const size_t t = cache.length();
        if (t == 0)
            continue;
        const size_t keep = std::max<size_t>(
            1, static_cast<size_t>(
                   std::ceil(keep_fraction * static_cast<double>(t))));
        evicted += evictWeak(cache, keep);
    }
    return evicted;
}

size_t
kvBytes(const DecodeState &state)
{
    size_t bytes = 0;
    for (const KvCache &cache : state.layers)
        bytes += cache.bytes();
    return bytes;
}

std::vector<uint32_t>
sealKv(const DecodeState &state)
{
    std::vector<uint32_t> seals;
    seals.reserve(state.layers.size());
    for (const KvCache &cache : state.layers) {
        uint32_t crc = crc32(cache.k.data(),
                             cache.k.size() * sizeof(float));
        crc = crc32(cache.v.data(), cache.v.size() * sizeof(float),
                    crc);
        seals.push_back(crc);
    }
    return seals;
}

bool
verifyKv(const DecodeState &state, const std::vector<uint32_t> &seals)
{
    return sealKv(state) == seals;
}

void
corruptKv(DecodeState &state, size_t layer, KvFault mode)
{
    DOTA_ASSERT(layer < state.layers.size(),
                "corruptKv: layer {} out of range", layer);
    KvCache &cache = state.layers[layer];
    DOTA_ASSERT(cache.length() > 0, "corruptKv: empty cache");
    switch (mode) {
      case KvFault::BitFlip: {
        float &x = cache.k.data()[0];
        uint32_t bits;
        std::memcpy(&bits, &x, sizeof bits);
        bits ^= 1u << 12; // a mantissa bit: value changes, stays finite
        std::memcpy(&x, &bits, sizeof bits);
        break;
      }
      case KvFault::ZeroRow:
        std::fill(cache.k.row(0), cache.k.row(0) + cache.k.cols(),
                  0.0f);
        break;
      case KvFault::TornWrite:
        // Half of the last V row gets plausible-looking new values;
        // only the stale seal betrays the torn update.
        for (size_t j = 0; j < cache.v.cols() / 2 + 1; ++j)
            cache.v.row(cache.v.rows() - 1)[j] += 0.0625f;
        break;
    }
}

KvTransfer
exportKv(const DecodeState &state)
{
    KvTransfer transfer;
    transfer.seals = sealKv(state);
    transfer.state = state; // deep copy: the source may die after this
    return transfer;
}

bool
importKv(const KvTransfer &transfer, DecodeState &dst)
{
    // Verify-on-arrival: the payload must still match the seals taken
    // at departure. On mismatch the receiver keeps its own state — the
    // caller falls back to re-decoding the prefix.
    if (!verifyKv(transfer.state, transfer.seals))
        return false;
    dst = transfer.state;
    return true;
}

namespace {

/**
 * The fp32 decode attention stage: one new token's Q/K/V row against
 * @p cache, appended first.
 */
Matrix
kvStep(KvCache &cache, size_t heads, double retention, const Matrix &,
       const Matrix &q, const Matrix &k, const Matrix &v)
{
    cache.append(k, v);
    const size_t dh = q.cols() / heads;
    const size_t t = cache.length();
    const float inv_sqrt_dk = 1.0f / std::sqrt(static_cast<float>(dh));
    Matrix z(1, q.cols());

    // Streaming single-query path: the same dispatch policy as the
    // layer forward (explicit DOTA_ATTN=streaming, or auto once the
    // cache outgrows the streaming threshold), dense-only semantics
    // (retention == 1: dynamic top-k needs the full score row). The
    // second tile pass feeds the same attention-mass telemetry.
    const AttnChoice choice = attnChoice();
    const bool stream =
        retention >= 1.0 &&
        (choice == AttnChoice::Streaming ||
         (choice == AttnChoice::Auto && t >= kStreamingAutoSeqLen));
    if (stream) {
        std::vector<float> probs;
        for (size_t h = 0; h < heads; ++h) {
            const size_t off = h * dh;
            streamingAttentionQuery(q.row(0) + off, cache.k, cache.v, off,
                                    dh, inv_sqrt_dk, z.row(0) + off,
                                    &probs);
            for (size_t j = 0; j < t; ++j)
                if (probs[j] != 0.0f)
                    cache.mass[j] += probs[j];
        }
        return z;
    }

    // Dense or top-k path through the windowed Level-2 kernels: the
    // same dot-family scores and broadcast-FMA A·V folds as the layer
    // forward's matmulBT / matmul, so fp32 dense decode reproduces the
    // full causal forward bit for bit (DESIGN.md §12).
    const auto &kt = activeGemmKernels();
    std::vector<uint32_t> all(t), kept;
    std::iota(all.begin(), all.end(), 0u);
    std::vector<float> w;
    kept.reserve(t);
    w.reserve(t);
    Matrix scores(1, t);
    float *s = scores.row(0);
    for (size_t h = 0; h < heads; ++h) {
        const size_t off = h * dh;
        kt.sparseScoreRow(q.row(0) + off, cache.k, off, dh, all.data(), t,
                          s);
        for (size_t j = 0; j < t; ++j)
            s[j] *= inv_sqrt_dk;
        Matrix probs;
        if (retention < 1.0) {
            const size_t keep = std::max<size_t>(
                1, static_cast<size_t>(std::llround(
                       retention * static_cast<double>(t))));
            probs = rowSoftmaxMasked(scores, topkMask(scores, keep));
        } else {
            probs = rowSoftmax(scores);
        }
        // A·V over the keys with non-zero probability only.
        kept.clear();
        w.clear();
        const float *pr = probs.row(0);
        for (size_t j = 0; j < t; ++j) {
            const float p = pr[j];
            if (p == 0.0f)
                continue;
            cache.mass[j] += p; // detector signal for evictWeak()
            kept.push_back(static_cast<uint32_t>(j));
            w.push_back(p);
        }
        kt.sparseAvRow(w.data(), kept.data(), kept.size(), cache.v, off, dh,
                       z.row(0) + off);
    }
    return z;
}

} // namespace

Matrix
decodeStep(CausalLM &model, DecodeState &state, int token,
           double retention)
{
    return model.run(
        {token}, state.advance(model.config()),
        [&](size_t l, EncoderBlock &blk, const Matrix &h) {
            KvCache &cache = state.layers[l];
            const size_t heads = blk.attention().heads();
            return blk.forward(
                [&](BlockGemm g, const Matrix &a) { return blk.gemm(g, a); },
                std::bind_front(kvStep, std::ref(cache), heads, retention), h);
        },
        [&](const Matrix &h) { return model.lmHead().forward(h, false); });
}

std::vector<int>
generate(CausalLM &model, const std::vector<int> &prefix, size_t steps,
         double retention, double temperature, uint64_t seed)
{
    DecodeState state;
    return generateWith(
        [&](int tok) { return decodeStep(model, state, tok, retention); },
        prefix, steps, model.config().max_seq, temperature, seed);
}

std::vector<int>
generateWith(const std::function<Matrix(int token)> &step,
             const std::vector<int> &prefix, size_t steps, size_t max_seq,
             double temperature, uint64_t seed)
{
    DOTA_ASSERT(!prefix.empty(), "generation needs a non-empty prefix");
    Matrix logits;
    for (int tok : prefix)
        logits = step(tok);
    size_t fed = prefix.size();

    Rng rng(seed);
    std::vector<int> out;
    out.reserve(steps);
    for (size_t s = 0; s < steps; ++s) {
        int next;
        if (temperature <= 0.0) {
            next = rowArgmax(logits)[0];
        } else {
            Matrix scaled = scale(logits,
                                  static_cast<float>(1.0 / temperature));
            const Matrix probs = rowSoftmax(scaled);
            const double u = rng.uniform();
            double acc = 0.0;
            next = static_cast<int>(probs.cols()) - 1;
            for (size_t c = 0; c < probs.cols(); ++c) {
                acc += probs(0, c);
                if (u < acc) {
                    next = static_cast<int>(c);
                    break;
                }
            }
        }
        out.push_back(next);
        if (fed >= max_seq)
            break;
        logits = step(next);
        ++fed;
    }
    return out;
}

} // namespace dota
