/**
 * @file
 * serve_gen: the GenerationEngine on the LM benchmark with the default
 * 4-device fleet, replaying a seeded open-loop Poisson GenTrace in the
 * engine's virtual time under a chaos plan; and the per-layer probes of
 * its set-up (mask synthesis, dataflow analysis, simulation, warm-up).
 *
 * The host loop is closed (one caller, one run() at a time); the
 * arrivals inside a run are open-loop in virtual time.
 */
#include <memory>
#include <set>
#include <sstream>

#include "bench.hpp"
#include "common/rng.hpp"
#include "sched/dataflow.hpp"
#include "serve/engine.hpp"
#include "sim/accelerator.hpp"
#include "workloads/mask_synth.hpp"

namespace perfbench {

using namespace dota;

namespace {

/**
 * Chaos over the trace's ~40 s of virtual time: two kill/revive pairs,
 * a drain, three KV-page corruptions and 1% transient step failures.
 */
const char *const kChaosPlan =
    "kill:0@5000,revive:0@8000,drain:1@12000,corrupt:0@3000,"
    "corrupt:0@17000,corrupt:0@30000,kill:2@25000,revive:2@28000,"
    "transient:0.01";

GenTrace
makeTrace(uint64_t seed)
{
    GenTraceConfig tc;
    tc.arrivals.process = ArrivalProcess::Poisson;
    tc.arrivals.rate_per_s = 40.0;
    tc.arrivals.requests = 1600;
    tc.arrivals.seed = seed;
    tc.arrivals.len_min = 256;
    tc.arrivals.len_max = 2048;
    tc.arrivals.len_round = 128;
    return generateGenTrace(tc);
}

const Benchmark &
lm()
{
    return benchmark(BenchmarkId::LM);
}

std::unique_ptr<GenerationEngine>
setUp(const GenTrace &trace)
{
    auto engine = std::make_unique<GenerationEngine>(EngineConfig{}, lm());
    engine->warm(trace);
    return engine;
}

std::string
render(const ServeReport &rep)
{
    std::ostringstream os;
    rep.print(os);
    return os.str();
}

/** Conservation and the no-corrupted-token invariant of one report. */
void
checkReport(RunResult &r, const ServeReport &rep, const GenTrace &trace)
{
    r.check(rep.requests == trace.requests.size() &&
                rep.completed + rep.shed() + rep.failed == rep.requests,
            "serve: completed + shed + failed == requests");
    bool full_budgets = rep.outcomes.size() == trace.requests.size();
    for (const RequestOutcome &o : rep.outcomes)
        if (o.status == RequestStatus::Completed &&
            o.generated != trace.requests[o.id].output_len)
            full_budgets = false;
    r.check(full_budgets && rep.gen.quarantined_pages ==
                                rep.gen.corrupted_pages_detected,
            "serve: no corrupted token served (corrupt pages quarantined, "
            "every completed request emits its budget)");
}

} // namespace

RunResult
runServe(const Options &opt, Tracer &tr)
{
    RunResult r;
    r.item = "request";
    r.round = "one GenerationEngine::run() of the chaos trace";

    const GenTrace trace = makeTrace(opt.seed);
    const FaultPlan plan = parseFaultPlan(kChaosPlan);
    std::unique_ptr<GenerationEngine> engine;
    for (size_t i = 0; i < opt.setups; ++i) {
        Tracer::Scope span(tr, "setup.serve");
        r.setup_s.push_back(timeSeconds([&] { engine = setUp(trace); }));
    }

    engine->run(trace, plan, opt.seed); // warm-up (untimed)

    std::string first;
    size_t shed_or_failed = 0, requests = 0;
    Budget budget(opt.seconds);
    for (uint64_t round = 0; budget.next(round); ++round) {
        ServeReport rep;
        const double s = timeSeconds([&] {
            Tracer::Scope span(tr, "serve.run", round);
            rep = engine->run(trace, plan, opt.seed);
        });
        r.round_ms.push_back(s * 1e3);
        r.measured_s += s;
        r.items += static_cast<double>(trace.requests.size());
        checkReport(r, rep, trace);
        const std::string text = render(rep);
        if (round == 0)
            first = text;
        r.check(text == first, "serve: repeated run() reports are identical");
        r.outputs.push_back(fingerprint(text.data(), text.size()));
        shed_or_failed += rep.shed() + rep.failed;
        requests += rep.requests;
    }
    r.detail["serve_req_s"] = {
        static_cast<double>(trace.requests.size()) /
            (percentile(r.round_ms, 0.5) / 1e3),
        "req/s", r.round_ms.size(), "trace requests / median run() time"};
    r.detail["serve.fail_share"] = {
        static_cast<double>(shed_or_failed) / static_cast<double>(requests),
        "share", r.round_ms.size(),
        std::to_string(shed_or_failed) + " shed or failed of " +
            std::to_string(requests) + " requests"};
    return r;
}

void
probeServeLayers(const Options &opt, Tracer &tr, MetricMap &out)
{
    const GenTrace trace = makeTrace(opt.seed);
    const FaultPlan plan = parseFaultPlan(kChaosPlan);
    const std::vector<size_t> lens = trace.distinctPromptLengths();
    const size_t longest = lens.back();
    const std::string at = "at n=" + std::to_string(longest);

    // The simulator's pipeline at the trace's longest prompt.
    Benchmark b = lm();
    b.paper_shape.seq_len = longest;
    const SimOptions sim_opt;
    const double retention = modeRetention(b, sim_opt.mode);
    SparseMask mask;
    const double synth_ms = medianMs(3, [&] {
        Tracer::Scope span(tr, "workloads.mask_synth");
        Rng rng(sim_opt.mask_seed);
        mask = synthesizeMask(longest, profileFor(b.id, retention), rng,
                              b.paper_shape.decoder);
    });
    const double dataflow_ms = medianMs(3, [&] {
        Tracer::Scope span(tr, "sched.dataflow");
        analyzeDataflow(mask, sim_opt.dataflow, sim_opt.token_parallelism);
    });
    RunReport sim;
    const double simulate_ms = medianMs(3, [&] {
        Tracer::Scope span(tr, "sim.simulate");
        sim = DotaAccelerator().simulate(b, sim_opt);
    });
    out["workloads.mask_synth_ms"] = {synth_ms, "ms", 3, at};
    out["sched.dataflow_ms"] = {dataflow_ms, "ms", 3, at};
    out["sim.simulate_ms"] = {simulate_ms, "ms", 3, at};
    out["sim.lm_time_ms"] = {sim.timeMs(), "ms", 0, "simulated, " + at};
    out["sim.lm_energy_mj"] = {sim.totalEnergyJ() * 1e3, "mJ", 0,
                               "simulated, " + at};

    GenerationEngine engine(EngineConfig{}, lm());
    const double warm_ms = 1e3 * timeSeconds([&] {
        Tracer::Scope span(tr, "serve.warm");
        engine.warm(trace);
    });
    ServeReport rep;
    const double run_ms = medianMs(3, [&] {
        Tracer::Scope span(tr, "serve.run");
        rep = engine.run(trace, plan, opt.seed);
    });
    out["serve.warm_ms"] = {warm_ms, "ms", 1,
                            std::to_string(lens.size()) + " prompt lengths"};
    out["serve.run_ms"] = {run_ms, "ms", 3,
                           std::to_string(rep.requests) + " requests"};

    // Cost entries warm() fills: every distinct (device variant, length),
    // the two decode-calibration probe lengths included.
    std::set<std::string> variants;
    for (size_t a = 0; a < engine.size(); ++a)
        for (size_t level = 0; level < 8; ++level)
            variants.insert(engine.costModel().deviceName(a, level));
    out["serve.cost_entries"] = {
        static_cast<double>(variants.size() * (lens.size() + 2)), "count", 0,
        std::to_string(variants.size()) + " device variants x " +
            std::to_string(lens.size() + 2) + " lengths"};

    // Simulated statistics: exact, so a host-speed change keeps them.
    const GenMetrics &g = rep.gen;
    const auto count = [&](const char *name, double v, const char *unit) {
        out[std::string("serve.sim.") + name] = {v, unit, 0, "virtual time"};
    };
    count("ttft_p50_ms", g.ttft_p50_ms, "ms");
    count("ttft_p99_ms", g.ttft_p99_ms, "ms");
    count("tpot_p50_ms", g.tpot_p50_ms, "ms");
    count("tpot_p99_ms", g.tpot_p99_ms, "ms");
    count("steps", static_cast<double>(g.steps), "count");
    count("migrations", static_cast<double>(g.migrations), "count");
    count("wasted_tokens",
          static_cast<double>(g.wasted_prefill_tokens +
                              g.wasted_decode_tokens),
          "count");
    count("kv_peak_pages", static_cast<double>(g.kv_peak_pages), "count");
    count("sheds", static_cast<double>(rep.shed()), "count");
    count("completed", static_cast<double>(rep.completed), "count");
}

} // namespace perfbench
