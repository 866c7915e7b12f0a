/**
 * @file
 * Tests of the benchmark's own helpers: the percentile rule, span
 * self-time subtraction and the JSON writer. Exit 0 when every check
 * holds; each failure is printed.
 *
 *   python3 perfbench/run.py --self-test
 */
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "report.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void
check(bool ok, const std::string &what)
{
    if (!ok) {
        ++failures;
        std::cout << "FAIL: " << what << "\n";
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
iota(size_t n)
{
    std::vector<double> v(n);
    for (size_t i = 0; i < n; ++i)
        v[i] = static_cast<double>(n - i); // descending: order must not matter
    return v;
}

void
testPercentile()
{
    check(percentile({}, 0.5) == 0.0, "empty percentile is 0");
    check(percentile({7.0}, 0.99) == 7.0, "single sample");
    check(percentile(iota(100), 0.5) == 50.0, "p50 of 1..100 is 50");
    check(percentile(iota(100), 0.99) == 99.0, "p99 of 1..100 is 99");
    check(percentile(iota(10), 0.95) == 10.0, "p95 of 1..10 is 10");
    check(samplesBeyond(100, 0.9) == 10, "10 samples beyond p90 of 100");
    check(samplesBeyond(5, 1.0) == 0, "nothing beyond the maximum");
}

void
testTailRule()
{
    // The highest percentile with at least ten samples beyond it.
    check(tailFraction(1000) == 0.99, "1000 samples -> p99");
    check(tailFraction(999) == 0.95, "999 samples -> p95 (p99 has 9)");
    check(tailFraction(10000) == 0.999, "10000 samples -> p99.9");
    check(tailFraction(200) == 0.95, "200 samples -> p95");
    check(tailFraction(100) == 0.90, "100 samples -> p90");
    check(tailFraction(40) == 0.75, "40 samples -> p75");
    check(tailFraction(12) == 0.5, "12 samples -> median");
    const Summary s = summarize(iota(1000));
    check(s.n == 1000 && s.p50 == 500.0 && s.tail == 990.0,
          "summary of 1..1000: p50 500, p99 990");
    const std::vector<double> across =
        medianAcross({{1, 10, 5}, {3, 20, 5}, {2, 90, 6}});
    check(across == std::vector<double>({2, 20, 5}),
          "element-wise median across repetitions");
    check(medianAcross({}).empty(), "no repetitions, no samples");
    check(percentileLabel(0.99) == "p99" &&
              percentileLabel(0.999) == "p99.9" &&
              percentileLabel(0.5) == "p50",
          "percentile labels");
}

void
testSelfTime()
{
    Tracer t;
    const int root = t.add("root", 0, 100, -1, 1);
    const int a = t.add("a", 10, 30, root, 1);
    t.add("b", 25, 50, root, 1);      // overlaps a: union 10..50
    t.add("a.child", 12, 20, a, 1);   // grandchild: not root's business
    t.add("late", 90, 120, root, 1);  // clipped to the root's interval
    const std::vector<double> self = t.selfTimesUs();
    check(near(self[0], 100 - 40 - 10), "root self = 100 - union(40) - 10");
    check(near(self[1], 20 - 8), "a self = 20 - 8");
    check(near(self[2], 25), "leaf self = duration");

    // Live spans nest by the open stack.
    Tracer live;
    {
        Tracer::Scope outer(live, "outer", 7);
        Tracer::Scope inner(live, "inner", 7);
    }
    check(live.spans().size() == 2 && live.spans()[1].parent == 0 &&
              live.spans()[1].request == 7,
          "scoped spans nest under the open span");
    const std::vector<double> live_self = live.selfTimesUs();
    check(live_self[0] >= 0.0 && live_self[1] >= 0.0,
          "self time is never negative");

    Tracer off(false);
    {
        Tracer::Scope s(off, "ignored");
    }
    check(off.spans().empty(), "a disabled tracer records nothing");
}

void
testJson()
{
    check(jsonQuote("a\"b\\c\n\x01") == "\"a\\\"b\\\\c\\n\\u0001\"",
          "string escaping");

    std::ostringstream os;
    JsonWriter w(os);
    w.beginObject();
    w.key("x").value(1.5);
    w.key("list").beginArray().value(1).value("two").value(true).endArray();
    w.key("nan").value(std::nan(""));
    w.key("empty").beginObject().endObject();
    w.endObject();
    check(os.str() ==
              "{\"x\":1.5,\"list\":[1,\"two\",true],\"nan\":null,"
              "\"empty\":{}}",
          "nested writer output: " + os.str());

    std::ostringstream digits;
    JsonWriter(digits).value(0.1);
    check(digits.str() == "0.10000000000000001",
          "numbers keep all their digits: " + digits.str());

    MetricMap m;
    m["setup_s"] = Metric{0.25, "s", 3, ""};
    m["a.b"] = Metric{2.0, "1/s", 10, ""};
    std::ostringstream line;
    writeResultLine(line, true, 4, 0, m);
    check(line.str() ==
              "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":"
              "{\"a.b\":{\"value\":2,\"unit\":\"1/s\"},\"setup_s\":"
              "{\"value\":0.25,\"unit\":\"s\"}}}\n",
          "result line: " + line.str());

    std::ostringstream chrome;
    Tracer t;
    t.add("s", 1, 3, -1, 9);
    t.writeChromeJson(chrome, {{"workload", "w"}});
    check(chrome.str().find("\"ph\":\"X\"") != std::string::npos &&
              chrome.str().find("\"dur\":2") != std::string::npos &&
              chrome.str().find("\"request\":9") != std::string::npos &&
              chrome.str().find("\"workload\":\"w\"") != std::string::npos,
          "chrome trace events: " + chrome.str());
}

} // namespace

int
main()
{
    testPercentile();
    testTailRule();
    testSelfTime();
    testJson();
    if (failures == 0)
        std::cout << "perfbench helper tests: all passed\n";
    return failures == 0 ? 0 : 1;
}
