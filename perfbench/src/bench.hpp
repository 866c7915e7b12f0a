/**
 * @file
 * Shared types of the repository benchmark's workloads.
 *
 * Every workload is a closed loop with one caller. It sets up a few
 * times (reporting the median), then repeats "rounds" of its operation
 * until the time budget is spent, checking each output. A round is:
 *
 *  - prefill_long: one 2048-token forward in each of the dense, DOTA
 *    and int8 configurations;
 *  - decode:       one token position, decoded by each of the fp32
 *    dense, fp32 top-k and int8 paths;
 *  - serve_gen:    one GenerationEngine::run() of the chaos trace;
 *  - train_joint:  one optimizer step of the joint DOTA training.
 *
 * Inputs come only from the workload seed; model weights and detector
 * projections use fixed seeds so that every seed runs the same program
 * on different data.
 */
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

namespace perfbench {

/** Number of set-ups a workload makes by default (median reported). */
constexpr size_t kSetups = 3;

struct Options
{
    std::string workload;
    uint64_t seed = 1;     ///< feeds only the input generators
    double seconds = 10.0; ///< time budget of the rounds (>= 1 round)
    size_t setups = kSetups;
};

/** What one workload loop measured and checked. */
struct RunResult
{
    std::vector<double> setup_s;  ///< one sample per set-up
    std::vector<double> round_ms; ///< one sample per round
    double items = 0.0;           ///< work items completed in rounds
    double measured_s = 0.0;      ///< wall time of the rounds
    std::string item;             ///< "token", "request", "sequence"
    std::string round;            ///< what one round is

    size_t attempted = 0; ///< output checks made
    size_t failed = 0;    ///< output checks that failed
    std::vector<std::string> failures;

    /** Per-configuration results under the workload's own names. */
    MetricMap detail;
    /** Fingerprints of the outputs in order (traced == untraced check). */
    std::vector<uint64_t> outputs;

    /** Record one output check. */
    void check(bool ok, const std::string &what);
};

/** FNV-1a over raw bytes, chained from @p h. */
uint64_t fingerprint(const void *data, size_t bytes,
                     uint64_t h = 1469598103934665603ull);

/**
 * Paces the rounds of a run: the first always runs, and another starts
 * while at least half the previous one's time is left, so a run ends
 * within half a round of its budget and long rounds are not cut short
 * or doubled by where the deadline falls.
 */
class Budget
{
  public:
    explicit Budget(double seconds) : end_(nowSeconds() + seconds) {}

    /** Whether round number @p k (0-based) should start. */
    bool next(uint64_t k)
    {
        const double now = nowSeconds();
        const double last = now - start_;
        start_ = now;
        return k == 0 || end_ - now >= 0.5 * last;
    }

  private:
    double end_;
    double start_ = 0.0;
};

/** Wall time of @p fn in seconds. */
template <typename Fn>
double
timeSeconds(Fn &&fn)
{
    const double t0 = nowSeconds();
    fn();
    return nowSeconds() - t0;
}

RunResult runPrefill(const Options &opt, Tracer &tr);
RunResult runDecode(const Options &opt, Tracer &tr);
RunResult runServe(const Options &opt, Tracer &tr);
RunResult runTrain(const Options &opt, Tracer &tr);

/**
 * Per-layer probes of the traced run. Each times calls into the
 * library's public functions from outside, records spans in @p tr and
 * adds its metrics to @p out.
 */
void probePrefillLayers(const Options &opt, Tracer &tr, MetricMap &out);
void probeDecodeLayers(const Options &opt, Tracer &tr, MetricMap &out);
void probeServeLayers(const Options &opt, Tracer &tr, MetricMap &out);
void probeTrainLayers(const Options &opt, Tracer &tr, MetricMap &out);
void probeTensorLayers(const Options &opt, Tracer &tr, MetricMap &out);

/** Time one call of @p fn repeatedly; median of @p reps in ms. */
template <typename Fn>
double
medianMs(size_t reps, Fn &&fn)
{
    std::vector<double> v;
    v.reserve(reps);
    for (size_t i = 0; i < reps; ++i)
        v.push_back(timeSeconds(fn) * 1e3);
    return percentile(v, 0.5);
}

} // namespace perfbench
