/**
 * @file
 * Percentile rule and JSON writer of the repository benchmark.
 */
#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

namespace {

/** ceil(q * n), robust to q * n landing a rounding error above an integer. */
size_t
nearestRank(size_t n, double q)
{
    return static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
}

} // namespace

double
percentile(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    const size_t rank = std::clamp<size_t>(nearestRank(n, q), 1, n);
    return samples[rank - 1];
}

size_t
samplesBeyond(size_t n, double q)
{
    const size_t rank = nearestRank(n, q);
    return rank >= n ? 0 : n - rank;
}

double
tailFraction(size_t n)
{
    for (double q : {0.999, 0.99, 0.95, 0.90, 0.75})
        if (samplesBeyond(n, q) >= 10)
            return q;
    return 0.5;
}

std::vector<double>
medianAcross(const std::vector<std::vector<double>> &reps)
{
    std::vector<double> out;
    for (size_t i = 0; !reps.empty() && i < reps.front().size(); ++i) {
        std::vector<double> column;
        for (const std::vector<double> &r : reps)
            column.push_back(r.at(i));
        out.push_back(percentile(column, 0.5));
    }
    return out;
}

Summary
summarize(const std::vector<double> &samples)
{
    Summary s;
    s.n = samples.size();
    if (samples.empty())
        return s;
    s.p50 = percentile(samples, 0.5);
    s.tail_q = tailFraction(s.n);
    s.tail = percentile(samples, s.tail_q);
    return s;
}

std::string
percentileLabel(double q)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "p%g", q * 100.0);
    return buf;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out + "\"";
}

void
JsonWriter::separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!first_.empty()) {
        if (!first_.back())
            os_ << ',';
        first_.back() = false;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    os_ << '{';
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    first_.pop_back();
    os_ << '}';
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    os_ << '[';
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    first_.pop_back();
    os_ << ']';
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    os_ << jsonQuote(k) << ':';
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &s)
{
    separate();
    os_ << jsonQuote(s);
    return *this;
}

JsonWriter &
JsonWriter::value(double d)
{
    separate();
    if (!std::isfinite(d)) {
        os_ << "null";
        return *this;
    }
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    os_ << buf;
    return *this;
}

JsonWriter &
JsonWriter::value(long long i)
{
    separate();
    os_ << i;
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    separate();
    os_ << (b ? "true" : "false");
    return *this;
}

void
writeResultLine(std::ostream &os, bool correct, size_t attempted,
                size_t failed, const MetricMap &metrics)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("correct").value(correct);
    w.key("attempted").value(attempted);
    w.key("failed").value(failed);
    w.key("metrics").beginObject();
    for (const auto &[name, m] : metrics) {
        w.key(name).beginObject();
        w.key("value").value(m.value);
        w.key("unit").value(m.unit);
        w.endObject();
    }
    w.endObject();
    w.endObject();
    os << '\n';
}

} // namespace perfbench
