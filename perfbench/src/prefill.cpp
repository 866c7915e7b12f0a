/**
 * @file
 * prefill_long: full-sequence forwards of the long-sequence LM over
 * 2048 seeded tokens in the dense, DOTA and int8 configurations, and
 * the per-layer probes of the detector, blocks and attention backends.
 */
#include <memory>

#include "lm.hpp"
#include "nn/attention_backend.hpp"
#include "tensor/ops.hpp"
#include "tensor/sparse_mask.hpp"

namespace perfbench {

using namespace dota;

namespace {

/** Inference-mode DOTA detector: retention 0.10, sigma 0.25, 4-bit. */
DetectorConfig
inferenceDetectorConfig()
{
    DetectorConfig d;
    d.retention = 0.10;
    d.sigma = 0.25;
    d.bits = 4;
    d.train = false;
    return d;
}

struct PrefillModel
{
    std::unique_ptr<CausalLM> model;
    std::unique_ptr<DotaDetector> det;
    Int8Plan plan;
};

/** Build the model, its inference detector and its int8 plan. */
PrefillModel
setUp(uint64_t seed)
{
    PrefillModel s;
    s.model = std::make_unique<CausalLM>(lmConfig());
    s.det = std::make_unique<DotaDetector>(lmConfig(),
                                           inferenceDetectorConfig());
    Rng calib(seed ^ 0xca11b7a7e5eedull);
    s.plan = calibratedPlan(*s.model, calib);
    return s;
}

Matrix
headSlice(const Matrix &m, size_t h, size_t dh)
{
    Matrix out(m.rows(), dh);
    for (size_t i = 0; i < m.rows(); ++i)
        std::copy(m.row(i) + h * dh, m.row(i) + (h + 1) * dh, out.row(i));
    return out;
}

} // namespace

RunResult
runPrefill(const Options &opt, Tracer &tr)
{
    RunResult r;
    r.item = "token";
    r.round = "dense + DOTA + int8 forward of 2048 tokens";

    PrefillModel s;
    for (size_t i = 0; i < opt.setups; ++i) {
        Tracer::Scope span(tr, "setup.prefill");
        r.setup_s.push_back(timeSeconds([&] { s = setUp(opt.seed); }));
    }
    CausalLM &model = *s.model;
    TimingHook timing(*s.det, tr);
    AttentionHook *hook =
        tr.enabled() ? static_cast<AttentionHook *>(&timing) : s.det.get();

    Rng rng(opt.seed);
    // Warm-up (untimed): the first long forward of a process also pays
    // for the allocator growing its heap to n x n score buffers.
    model.setHook(nullptr);
    model.forward(randomTokens(rng, kPrefillLen, model.config().vocab));

    std::vector<double> dense_s, dota_s, int8_s;
    std::vector<int> first_ids;
    Matrix first_dota;
    Budget budget(opt.seconds);
    for (uint64_t round = 0; budget.next(round); ++round) {
        const std::vector<int> ids =
            randomTokens(rng, kPrefillLen, model.config().vocab);
        Matrix dense, dota, q8;

        model.setHook(nullptr);
        dense_s.push_back(timeSeconds([&] {
            Tracer::Scope span(tr, "prefill.dense", round);
            dense = model.forward(ids);
        }));
        model.setHook(hook);
        dota_s.push_back(timeSeconds([&] {
            Tracer::Scope span(tr, "prefill.dota", round);
            dota = model.forward(ids);
        }));
        const auto &backends = model.blocks()[0]->attention().lastBackends();
        const bool sparse = !backends.empty() &&
                            backends[0] == AttnBackendKind::Sparse;
        model.setHook(nullptr);
        int8_s.push_back(timeSeconds([&] {
            Tracer::Scope span(tr, "prefill.int8", round);
            q8 = int8Forward(model, s.plan, ids);
        }));

        const double round_s = dense_s.back() + dota_s.back() + int8_s.back();
        r.round_ms.push_back(round_s * 1e3);
        r.measured_s += round_s;
        r.items += 3.0 * static_cast<double>(kPrefillLen);

        const size_t vocab = model.config().vocab;
        for (const Matrix *m : {&dense, &dota, &q8})
            r.check(m->rows() == kPrefillLen && m->cols() == vocab &&
                        allFinite(*m),
                    "prefill logits are finite and n x vocab");
        r.check(sparse, "the DOTA forward ran attention on the sparse "
                        "backend");
        r.outputs.push_back(fingerprint(dense));
        r.outputs.push_back(fingerprint(dota));
        r.outputs.push_back(fingerprint(q8));

        if (round == 0) {
            first_ids = ids;
            first_dota = std::move(dota);
        }
    }

    // The sparse path computes the kept scores exactly: forcing the
    // dense backend under the same hook gives the same bits.
    model.setHook(hook);
    model.setForceDense(true);
    const Matrix forced = model.forward(first_ids);
    model.setForceDense(false);
    model.setHook(nullptr);
    r.check(forced.size() == first_dota.size() &&
                bitIdentical(forced.data(), first_dota.data(), forced.size()),
            "DOTA sparse logits are bit-identical to the forced-dense "
            "forward under the same hook");

    const double n = static_cast<double>(kPrefillLen);
    r.detail["prefill_tok_s.dense"] = {n / percentile(dense_s, 0.5), "tok/s",
                                       dense_s.size(), "median forward"};
    r.detail["prefill_tok_s.dota"] = {n / percentile(dota_s, 0.5), "tok/s",
                                      dota_s.size(), "median forward"};
    r.detail["prefill_tok_s.int8"] = {n / percentile(int8_s, 0.5), "tok/s",
                                      int8_s.size(), "median forward"};
    return r;
}

void
probePrefillLayers(const Options &opt, Tracer &tr, MetricMap &out)
{
    PrefillModel s = setUp(opt.seed);
    CausalLM &m = *s.model;
    const TransformerConfig cfg = m.config();
    const size_t n = kPrefillLen, dh = cfg.headDim();
    Rng rng(opt.seed);
    const std::vector<int> ids = randomTokens(rng, n, cfg.vocab);

    Matrix h0 = m.tokenEmbedding().forward(ids);
    for (size_t i = 0; i < n; ++i)
        for (size_t j = 0; j < cfg.dim; ++j)
            h0(i, j) += m.positionTable()(i, j);

    // One forward per config, block by block, keeping each block's input.
    auto forwardBlocks = [&](const std::string &tag, AttentionHook *hook,
                             double &total_ms, std::vector<double> &block_ms) {
        m.setHook(hook);
        std::vector<Matrix> inputs;
        Matrix h = h0;
        total_ms = 1e3 * timeSeconds([&] {
            Tracer::Scope fwd(tr, "nn.lm_forward." + tag);
            for (auto &blk : m.blocks()) {
                inputs.push_back(h);
                block_ms.push_back(1e3 * timeSeconds([&] {
                    Tracer::Scope b(tr, "nn.block." + tag);
                    h = blk->forward(h);
                }));
            }
        });
        return inputs;
    };
    double dense_fwd_ms = 0.0, dota_fwd_ms = 0.0;
    std::vector<double> dense_block_ms, dota_block_ms;
    const std::vector<Matrix> dense_in =
        forwardBlocks("dense", nullptr, dense_fwd_ms, dense_block_ms);

    TimingHook timing(*s.det, tr);
    const size_t first_span = tr.spans().size();
    const std::vector<Matrix> dota_in =
        forwardBlocks("dota", &timing, dota_fwd_ms, dota_block_ms);
    std::vector<double> begin_ms, select_ms;
    double detect_self_ms = 0.0;
    const std::vector<double> self = tr.selfTimesUs();
    for (size_t i = first_span; i < tr.spans().size(); ++i) {
        const Span &sp = tr.spans()[i];
        const double ms = (sp.end_us - sp.start_us) / 1e3;
        if (sp.name == "detect.begin_layer")
            begin_ms.push_back(ms);
        else if (sp.name == "detect.select_mask")
            select_ms.push_back(ms);
        else
            continue;
        detect_self_ms += self[i] / 1e3;
    }

    // Kept / candidate (causal) coordinates over every layer and head.
    double kept = 0.0, candidates = 0.0;
    for (auto &blk : m.blocks())
        for (const Matrix &mask : blk->attention().lastMasks()) {
            for (size_t i = 0; i < mask.size(); ++i)
                kept += mask.data()[i] != 0.0f;
            candidates += static_cast<double>(n) * (n + 1) / 2.0;
        }

    // Attention alone on each block's input, then each backend per head
    // on that layer's Q/K/V and the detector's mask.
    std::vector<double> attn_dense_ms, attn_dota_ms;
    std::vector<double> backend_ms[4];
    const AttnBackendKind kinds[4] = {
        AttnBackendKind::Dense, AttnBackendKind::Sparse,
        AttnBackendKind::Streaming, AttnBackendKind::Int8};
    for (size_t l = 0; l < cfg.layers; ++l) {
        MultiHeadAttention &att = m.blocks()[l]->attention();
        att.setHook(nullptr);
        attn_dense_ms.push_back(1e3 * timeSeconds([&] {
            Tracer::Scope a(tr, "nn.attention.dense");
            att.forward(dense_in[l]);
        }));
        att.setHook(s.det.get());
        attn_dota_ms.push_back(1e3 * timeSeconds([&] {
            Tracer::Scope a(tr, "nn.attention.dota");
            att.forward(dota_in[l]);
        }));
        const Matrix q = matmul(dota_in[l], att.wq());
        const Matrix k = matmul(dota_in[l], att.wk());
        const Matrix v = matmul(dota_in[l], att.wv());
        for (size_t h = 0; h < cfg.heads; ++h) {
            const Matrix qh = headSlice(q, h, dh), kh = headSlice(k, h, dh),
                         vh = headSlice(v, h, dh);
            const Matrix &mask = att.lastMasks()[h];
            const SparseMask smask = SparseMask::fromDense(mask);
            for (size_t b = 0; b < 4; ++b) {
                AttnHeadProblem p;
                p.q = &qh;
                p.k = &kh;
                p.v = &vh;
                p.scale = 1.0f / std::sqrt(static_cast<float>(dh));
                if (kinds[b] == AttnBackendKind::Sparse ||
                    kinds[b] == AttnBackendKind::Streaming)
                    p.sparse_mask = &smask;
                else
                    p.dense_mask = &mask;
                const std::string name =
                    std::string("nn.backend.") + attnBackendName(kinds[b]);
                backend_ms[b].push_back(1e3 * timeSeconds([&] {
                    Tracer::Scope span(tr, name);
                    attentionBackend(kinds[b]).runHead(p);
                }));
            }
        }
    }
    m.setHook(nullptr);

    auto med = [](const std::vector<double> &v) { return percentile(v, 0.5); };
    out["detect.begin_layer_ms"] = {med(begin_ms), "ms", begin_ms.size(),
                                    "median per layer"};
    out["detect.select_mask_ms"] = {med(select_ms), "ms", select_ms.size(),
                                    "median per head"};
    out["detect.share"] = {detect_self_ms / dota_fwd_ms, "ratio", 1,
                           "detector self " + std::to_string(detect_self_ms) +
                               " ms / DOTA forward " +
                               std::to_string(dota_fwd_ms) + " ms"};
    out["detect.keep_ratio"] = {kept / candidates, "ratio", 0,
                                "kept " + std::to_string(kept) +
                                    " / causal candidates " +
                                    std::to_string(candidates)};
    out["nn.block_ms.dense"] = {med(dense_block_ms), "ms",
                                dense_block_ms.size(), "median per block"};
    out["nn.block_ms.dota"] = {med(dota_block_ms), "ms", dota_block_ms.size(),
                               "median per block"};
    out["nn.attention_ms.dense"] = {med(attn_dense_ms), "ms",
                                    attn_dense_ms.size(), "median per layer"};
    out["nn.attention_ms.dota"] = {med(attn_dota_ms), "ms",
                                   attn_dota_ms.size(), "median per layer"};
    for (size_t b = 0; b < 4; ++b)
        out[std::string("nn.backend.") + attnBackendName(kinds[b]) + "_ms"] =
            {med(backend_ms[b]), "ms", backend_ms[b].size(),
             "median runHead per head"};

    // Counts from shapes and mask nnz (not measured).
    const double d = static_cast<double>(cfg.dim),
                 L = static_cast<double>(cfg.layers),
                 ffn = static_cast<double>(cfg.ffn_dim),
                 vocab = static_cast<double>(cfg.vocab),
                 nn_ = static_cast<double>(n),
                 rank = static_cast<double>(s.det->rank()),
                 heads = static_cast<double>(cfg.heads);
    const double linear = L * (4 * d * d + 2 * d * ffn) + d * vocab;
    const double dense_attn = L * d * (nn_ + 1); // QK^T + AV, causal average
    const double sparse_attn = 2.0 * dh * kept / nn_;
    const double detector = L * (d * rank + heads * (2 * rank * rank +
                                                     nn_ * rank));
    out["tensor.macs_per_token.dense"] = {linear + dense_attn, "MAC", 0,
                                          "from shapes"};
    out["tensor.macs_per_token.dota"] = {linear + sparse_attn + detector,
                                         "MAC", 0,
                                         "from shapes and mask nnz, "
                                         "detector included"};
    out["tensor.bytes_per_token"] = {
        4.0 * (linear / nn_ + L * d * (nn_ + 1)), "B", 0,
        "fp32 weights amortised over the sequence + dense causal K/V reads"};
}

} // namespace perfbench
