/**
 * @file
 * decode: greedy token-by-token decoding of the long-sequence LM from a
 * short seeded prompt out to a 1024-token context, one decodeStep /
 * int8DecodeStep call per token, in the fp32 dense, fp32 top-k and int8
 * configurations; and the KV-append probe.
 */
#include <algorithm>
#include <memory>

#include "lm.hpp"
#include "nn/decode.hpp"

namespace perfbench {

using namespace dota;

namespace {

constexpr size_t kPromptLen = 16;
constexpr size_t kDecodeContext = 1024; ///< context decoding grows to
/**
 * Token positions per round: a round sums a short run of steps so that
 * one stalled step does not make a round, and 1024 / 8 rounds per pass
 * still give a p90 tail.
 */
constexpr size_t kRoundTokens = 8;
constexpr double kTopkRetention = 0.25;

enum class Path { Fp32, Topk, Int8 };

struct DecodePass
{
    std::vector<int> tokens;      ///< prompt + greedy continuation
    std::vector<double> step_ms;  ///< one per decode call
    Matrix logits;                ///< one row per decode call
};

size_t
argmax(const Matrix &row)
{
    return static_cast<size_t>(
        std::max_element(row.data(), row.data() + row.cols()) - row.data());
}

/** Decode @p prompt out to kDecodeContext tokens on one path. */
DecodePass
decodePass(CausalLM &model, const Int8Plan &plan, Path path,
           const std::vector<int> &prompt, Tracer &tr, uint64_t request)
{
    static const char *const names[] = {"decode.fp32", "decode.topk",
                                        "decode.int8"};
    DecodePass p;
    p.tokens = prompt;
    p.tokens.reserve(kDecodeContext);
    p.logits = Matrix(kDecodeContext, model.config().vocab);
    DecodeState fp;
    fp.reset(model.config().layers);
    Int8DecodeState q8;
    q8.reset(model.config().layers);
    for (size_t pos = 0; pos < kDecodeContext; ++pos) {
        const int token = p.tokens[pos];
        Matrix row;
        p.step_ms.push_back(1e3 * timeSeconds([&] {
            Tracer::Scope span(tr, names[static_cast<int>(path)], request);
            if (path == Path::Int8)
                row = int8DecodeStep(model, plan, q8, token);
            else
                row = decodeStep(model, fp, token,
                                 path == Path::Topk ? kTopkRetention : 1.0);
        }));
        std::copy(row.data(), row.data() + row.cols(), p.logits.row(pos));
        if (pos + 1 == p.tokens.size() && p.tokens.size() < kDecodeContext)
            p.tokens.push_back(static_cast<int>(argmax(row)));
    }
    return p;
}

struct DecodeModel
{
    std::unique_ptr<CausalLM> model;
    Int8Plan plan;
};

DecodeModel
setUp(uint64_t seed)
{
    DecodeModel s;
    s.model = std::make_unique<CausalLM>(lmConfig());
    Rng calib(seed ^ 0xca11b7a7e5eedull);
    s.plan = calibratedPlan(*s.model, calib);
    return s;
}

} // namespace

RunResult
runDecode(const Options &opt, Tracer &tr)
{
    RunResult r;
    r.item = "token";
    r.round = "8 consecutive token positions decoded by the fp32, top-k "
              "and int8 paths (median over passes)";

    DecodeModel s;
    for (size_t i = 0; i < opt.setups; ++i) {
        Tracer::Scope span(tr, "setup.decode");
        r.setup_s.push_back(timeSeconds([&] { s = setUp(opt.seed); }));
    }
    CausalLM &model = *s.model;

    Rng rng(opt.seed);
    // Warm-up (untimed): the first pass of a process also pays for the
    // allocator growing its heap with the KV cache (every append copies
    // the cache into a larger buffer); later passes reuse that memory.
    Tracer off(false);
    decodePass(model, s.plan, Path::Fp32,
               randomTokens(rng, kPromptLen, model.config().vocab), off, 0);

    std::vector<double> per_path[3];
    std::vector<std::vector<double>> pass_rounds;
    Budget budget(opt.seconds);
    for (uint64_t pass = 0; budget.next(pass); ++pass) {
        const std::vector<int> prompt =
            randomTokens(rng, kPromptLen, model.config().vocab);
        DecodePass p[3];
        for (int k = 0; k < 3; ++k)
            p[k] = decodePass(model, s.plan, static_cast<Path>(k), prompt, tr,
                              pass);
        std::vector<double> rounds(kDecodeContext / kRoundTokens, 0.0);
        for (size_t pos = 0; pos < kDecodeContext; ++pos) {
            for (int k = 0; k < 3; ++k) {
                rounds[pos / kRoundTokens] += p[k].step_ms[pos];
                per_path[k].push_back(p[k].step_ms[pos]);
            }
            r.items += 3.0;
        }
        for (double ms : rounds)
            r.measured_s += ms / 1e3;
        pass_rounds.push_back(std::move(rounds));
        for (int k = 0; k < 3; ++k) {
            r.check(allFinite(p[k].logits), "decode logits are finite");
            r.outputs.push_back(fingerprint(p[k].logits));
        }

        // fp32 dense decode against the full causal forward of the same
        // tokens: within the test suite's 2e-4 (not bitwise).
        const Matrix full = model.forward(p[0].tokens);
        float max_diff = 0.0f;
        for (size_t i = 0; i < full.size(); ++i)
            max_diff = std::max(max_diff, std::fabs(full.data()[i] -
                                                    p[0].logits.data()[i]));
        r.check(full.size() == p[0].logits.size() && max_diff <= 2e-4f,
                "fp32 decode within 2e-4 of the full forward (max diff " +
                    std::to_string(max_diff) + ")");
        // Int8 decode reproduces the int8 full sequence bit for bit.
        const Matrix full8 = int8Forward(model, s.plan, p[2].tokens);
        r.check(full8.size() == p[2].logits.size() &&
                    bitIdentical(full8.data(), p[2].logits.data(),
                                 full8.size()),
                "int8 decode is bit-identical to the int8Forward rows");
    }

    r.round_ms = medianAcross(pass_rounds);

    static const char *const names[] = {"fp32", "topk", "int8"};
    for (int k = 0; k < 3; ++k) {
        const Summary sm = summarize(per_path[k]);
        const std::string base = std::string("decode_ms_tok.") + names[k];
        const std::string note = "per decode call, context 1.." +
                                 std::to_string(kDecodeContext);
        r.detail[base + ".p50"] = {sm.p50, "ms", sm.n, note};
        r.detail[base + ".p99"] = {percentile(per_path[k], 0.99), "ms", sm.n,
                                   note + ", " +
                                       std::to_string(samplesBeyond(sm.n, 0.99)) +
                                       " samples beyond"};
    }
    return r;
}

void
probeDecodeLayers(const Options &opt, Tracer &tr, MetricMap &out)
{
    // KvCache::append at the final context: a cache of kDecodeContext-1
    // rows of one layer gains its last row.
    const size_t dim = lmConfig().dim;
    Rng rng(opt.seed);
    KvCache base;
    base.k = Matrix::randomNormal(kDecodeContext - 1, dim, rng);
    base.v = Matrix::randomNormal(kDecodeContext - 1, dim, rng);
    const Matrix k_row = Matrix::randomNormal(1, dim, rng);
    const Matrix v_row = Matrix::randomNormal(1, dim, rng);
    std::vector<double> us;
    for (int rep = 0; rep < 50; ++rep) {
        KvCache c = base;
        us.push_back(1e6 * timeSeconds([&] {
            Tracer::Scope span(tr, "nn.kv_append");
            c.append(k_row, v_row);
        }));
    }
    out["nn.kv_append_us"] = {percentile(us, 0.5), "us", us.size(),
                              "median, cache of " +
                                  std::to_string(kDecodeContext - 1) +
                                  " rows x " + std::to_string(dim)};
}

} // namespace perfbench
