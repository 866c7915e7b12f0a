/**
 * @file
 * In-memory span recorder of the benchmark's traced run.
 *
 * Spans are recorded only around calls the benchmark makes into the
 * library (a layer boundary seen from outside): name, start, end, the
 * enclosing span and a request id shared by the spans of one unit of
 * work. They stay in memory and are written once, at exit, as Chrome
 * trace-event JSON (viewable in Perfetto or chrome://tracing).
 *
 * A span's self time is its duration minus the part of its interval
 * that its direct children cover.
 */
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** Seconds on the steady clock since a fixed process-wide origin. */
double nowSeconds();

/** One recorded interval. Times in microseconds since the origin. */
struct Span
{
    std::string name;
    double start_us = 0.0;
    double end_us = 0.0;
    int parent = -1;      ///< index of the enclosing span, -1 at top
    uint64_t request = 0; ///< unit of work the span belongs to
};

class Tracer
{
  public:
    /** A disabled tracer records nothing and costs one branch. */
    explicit Tracer(bool enabled = true) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one; returns its index. */
    int begin(const std::string &name, uint64_t request = 0);
    /** Close span @p id (must be the innermost open span). */
    void end(int id);

    /** Add a finished span with explicit times (tests, replays). */
    int add(const std::string &name, double start_us, double end_us,
            int parent, uint64_t request = 0);

    const std::vector<Span> &spans() const { return spans_; }

    /** Self time of every span, by index. */
    std::vector<double> selfTimesUs() const;

    /** Chrome trace-event JSON ("X" events, one process, one thread). */
    void writeChromeJson(std::ostream &os,
                         const std::map<std::string, std::string> &meta) const;

    /** RAII span: begin on construction, end on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const std::string &name, uint64_t request = 0)
            : t_(t), id_(t.enabled() ? t.begin(name, request) : -1)
        {}
        ~Scope()
        {
            if (id_ >= 0)
                t_.end(id_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &t_;
        int id_;
    };

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_; ///< stack of open span indices
};

} // namespace perfbench
