/**
 * @file
 * Span recorder and self-time computation.
 */
#include "trace.hpp"

#include <algorithm>
#include <stdexcept>

#include "report.hpp"

namespace perfbench {

double
nowSeconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point origin = clock::now();
    return std::chrono::duration<double>(clock::now() - origin).count();
}

int
Tracer::begin(const std::string &name, uint64_t request)
{
    const double t = nowSeconds() * 1e6;
    const int parent = open_.empty() ? -1 : open_.back();
    const int id = add(name, t, t, parent, request);
    open_.push_back(id);
    return id;
}

void
Tracer::end(int id)
{
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("Tracer::end: span " + std::to_string(id) +
                               " is not the innermost open span");
    open_.pop_back();
    spans_[static_cast<size_t>(id)].end_us = nowSeconds() * 1e6;
}

int
Tracer::add(const std::string &name, double start_us, double end_us,
            int parent, uint64_t request)
{
    if (parent >= static_cast<int>(spans_.size()))
        throw std::out_of_range("Tracer::add: unknown parent span");
    spans_.push_back(Span{name, start_us, end_us, parent, request});
    return static_cast<int>(spans_.size()) - 1;
}

std::vector<double>
Tracer::selfTimesUs() const
{
    // Children of each span, clipped to the parent's interval; the
    // covered part is the length of their union.
    std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
    for (const Span &s : spans_) {
        if (s.parent < 0)
            continue;
        const Span &p = spans_[static_cast<size_t>(s.parent)];
        const double lo = std::max(s.start_us, p.start_us);
        const double hi = std::min(s.end_us, p.end_us);
        if (hi > lo)
            kids[static_cast<size_t>(s.parent)].emplace_back(lo, hi);
    }
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0, cur_lo = 0.0, cur_hi = 0.0;
        bool open = false;
        for (const auto &[lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = (spans_[i].end_us - spans_[i].start_us) - covered;
    }
    return self;
}

void
Tracer::writeChromeJson(std::ostream &os,
                        const std::map<std::string, std::string> &meta) const
{
    const std::vector<double> self = selfTimesUs();
    JsonWriter w(os);
    w.beginObject();
    w.key("displayTimeUnit").value("ms");
    w.key("otherData").beginObject();
    for (const auto &[k, v] : meta)
        w.key(k).value(v);
    w.endObject();
    w.key("traceEvents").beginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        w.beginObject();
        w.key("name").value(s.name);
        w.key("ph").value("X");
        w.key("ts").value(s.start_us);
        w.key("dur").value(s.end_us - s.start_us);
        w.key("pid").value(1);
        w.key("tid").value(1);
        w.key("args").beginObject();
        w.key("id").value(i);
        w.key("parent").value(s.parent);
        w.key("request").value(static_cast<long long>(s.request));
        w.key("self_us").value(self[i]);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
}

} // namespace perfbench
