/**
 * @file
 * Result helpers of the repository benchmark: the percentile rule for
 * timings, a metric record, and the JSON writer behind the result line
 * and the trace file.
 */
#pragma once

#include <cstddef>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/**
 * Nearest-rank percentile of @p samples at fraction @p q in (0, 1]:
 * the ceil(q * n)-th smallest sample. 0 when @p samples is empty.
 */
double percentile(std::vector<double> samples, double q);

/** Samples strictly beyond the nearest-rank @p q percentile of n. */
size_t samplesBeyond(size_t n, double q);

/**
 * The tail percentile a timing is reported at: the highest of
 * p99.9 / p99 / p95 / p90 / p75 with at least ten samples beyond it,
 * or the median when even p75 has fewer.
 */
double tailFraction(size_t n);

/**
 * Element-wise median of equally long repetitions: sample i of the
 * result is the median of sample i over @p reps. A workload whose
 * rounds repeat the same work in the same order (token positions of a
 * decode pass, steps of a training session) reports these, so that a
 * stall in one repetition does not become a round of its own.
 */
std::vector<double> medianAcross(const std::vector<std::vector<double>> &reps);

/** Median, tail and count of one timing series. */
struct Summary
{
    size_t n = 0;
    double p50 = 0.0;
    double tail_q = 0.5; ///< fraction the tail is taken at
    double tail = 0.0;
};

Summary summarize(const std::vector<double> &samples);

/** "p99", "p99.9", "p50" ... for a tail fraction. */
std::string percentileLabel(double q);

/** One reported metric: value, unit and how it was obtained. */
struct Metric
{
    double value = 0.0;
    std::string unit;
    size_t samples = 0; ///< measurements behind the value (0 = a count)
    std::string note;   ///< base of a ratio, percentile used, ...
};

/** Metrics by name, in name order. */
using MetricMap = std::map<std::string, Metric>;

/** Minimal streaming JSON writer (objects, arrays, scalars). */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    /** Key of the next value inside an object. */
    JsonWriter &key(const std::string &k);
    JsonWriter &value(const std::string &s);
    JsonWriter &value(const char *s) { return value(std::string(s)); }
    /** A number with all its digits; non-finite values become null. */
    JsonWriter &value(double d);
    JsonWriter &value(long long i);
    JsonWriter &value(size_t u) { return value(static_cast<long long>(u)); }
    JsonWriter &value(int i) { return value(static_cast<long long>(i)); }
    JsonWriter &value(bool b);

  private:
    void separate();

    std::ostream &os_;
    std::vector<bool> first_; ///< per open container: no element yet
    bool after_key_ = false;
};

/** @p s quoted and escaped as a JSON string. */
std::string jsonQuote(const std::string &s);

/**
 * The benchmark's result line: {"correct", "attempted", "failed",
 * "metrics": {name: {"value", "unit"}}} on one line.
 */
void writeResultLine(std::ostream &os, bool correct, size_t attempted,
                     size_t failed, const MetricMap &metrics);

} // namespace perfbench
