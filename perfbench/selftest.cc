/**
 * @file
 * Self-test of the benchmark's measurement rules (measure.hh): the
 * tail-percentile rule, metric-name validity, self-time arithmetic,
 * the output gate (an injected byte mismatch must raise the failed
 * fraction) and the Prometheus reader. Exits nonzero on the first
 * broken rule.
 *
 *   perfbench_selftest        (or: python3 perfbench/run.py --self-test)
 */
#include <cmath>
#include <iostream>
#include <string>

#include "measure.hh"

namespace {

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << '\n';
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
oneTo(int n)
{
    std::vector<double> v;
    for (int i = n; i >= 1; --i) // unsorted on purpose
        v.push_back(i);
    return v;
}

void
testPercentileRule()
{
    using perfbench::tailPercentile;
    expect(!tailPercentile({}), "no tail for no samples");
    // Fewer than ten samples beyond p75 -> no tail at all.
    expect(!tailPercentile(oneTo(39)), "39 samples: none has 10 beyond");
    // 40 samples: p75 is rank 30, 10 samples beyond it.
    auto tail = tailPercentile(oneTo(40));
    expect(tail && tail->label == "p75" && near(tail->value, 30),
           "40 samples -> p75 = 30");
    // 100 samples: p90 is rank 90 with 10 beyond; p95 has only 5.
    tail = tailPercentile(oneTo(100));
    expect(tail && tail->label == "p90" && near(tail->value, 90),
           "100 samples -> p90 = 90");
    tail = tailPercentile(oneTo(199));
    expect(tail && tail->label == "p90", "199 samples -> p90");
    tail = tailPercentile(oneTo(200));
    expect(tail && tail->label == "p95" && near(tail->value, 190),
           "200 samples -> p95 = 190");
    tail = tailPercentile(oneTo(1000));
    expect(tail && tail->label == "p99" && near(tail->value, 990),
           "1000 samples -> p99 = 990");
    tail = tailPercentile(oneTo(10000));
    expect(tail && tail->label == "p99.9" && near(tail->value, 9990),
           "10000 samples -> p99.9");
    expect(near(perfbench::median(oneTo(4)), 2.5), "even median");
    expect(near(perfbench::median(oneTo(5)), 3), "odd median");
    expect(near(perfbench::percentile(oneTo(10), 0.9), 9),
           "nearest-rank p90 of 1..10");
}

void
testMetricNames()
{
    using perfbench::validMetricName;
    for (const char *good : {"wall_s", "core.query_ms.avf", "p99.9",
                             "9lives", "a-b_c.d"})
        expect(validMetricName(good), std::string("valid: ") + good);
    for (const char *bad : {"", "_lead", ".lead", "-lead", "has space",
                            "slash/x", "quote\"", "colon:x", "tab\tx"})
        expect(!validMetricName(bad), std::string("invalid: ") + bad);
    expect(validMetricName(std::string(64, 'a')), "64 characters");
    expect(!validMetricName(std::string(65, 'a')), "65 characters");
}

perfbench::Span
span(uint64_t id, uint64_t parent, const char *name, uint64_t start,
     uint64_t end)
{
    return {id, parent, 1, name, start, end};
}

void
testSelfTime()
{
    // root [0,100) has children a [10,40) and b [30,60) (overlapping:
    // their union covers 50), plus c [90,120) clipped to [90,100).
    // a has a child d [15,25).
    std::vector<perfbench::Span> spans = {
        span(1, 0, "root", 0, 100), span(2, 1, "a", 10, 40),
        span(3, 1, "b", 30, 60),    span(4, 1, "c", 90, 120),
        span(5, 2, "d", 15, 25),    span(6, 0, "root", 200, 210),
    };
    auto layers = perfbench::foldSelfTimes(spans);
    expect(layers["root"].count == 2, "two root spans");
    expect(near(layers["root"].totalMs, 0.110), "root total 110 us");
    expect(near(layers["root"].selfMs, 0.050),
           "root self = 100 - 60 covered + 10 childless");
    expect(near(layers["a"].selfMs, 0.020), "a self = 30 - 10");
    expect(near(layers["b"].selfMs, 0.030), "b self = its duration");
    expect(near(layers["d"].selfMs, 0.010), "leaf self = duration");

    // Recorder nesting: parents follow open/close order.
    perfbench::SpanRecorder recorder;
    recorder.setEnabled(true);
    recorder.beginOperation();
    uint64_t outer = recorder.open("outer");
    uint64_t inner = recorder.open("inner");
    recorder.close(inner);
    recorder.close(outer);
    recorder.setEnabled(false);
    expect(recorder.open("off") == 0, "disabled recorder records nothing");
    const auto &recorded = recorder.spans();
    expect(recorded.size() == 2 && recorded[1].parent == recorded[0].id &&
               recorded[0].parent == 0 && recorded[1].op == 1,
           "inner span's parent is outer, both in operation 1");
}

void
testOutputGate()
{
    perfbench::OutputGate gate;
    std::string figure = "Figure 1: Susan\n12.5 dB\n";
    gate.pinDigest("fig1", perfbench::digestHex(figure));
    expect(gate.check("fig1", figure), "pinned bytes pass");
    expect(gate.check("fig1", figure), "repeated bytes pass");
    expect(gate.failed() == 0 &&
               perfbench::failedFraction(gate.failed(), gate.attempted()) ==
                   0,
           "no failures before the injected mismatch");

    std::string corrupted = figure;
    corrupted[3] ^= 1; // the injected byte mismatch
    expect(!gate.check("fig1", corrupted), "a flipped byte fails");
    expect(!gate.expectSame("fig1 direct vs. report", figure, corrupted),
           "cross-path mismatch fails");
    expect(gate.failed() == 2 && gate.attempted() == 4,
           "two of four operations failed");
    expect(near(perfbench::failedFraction(gate.failed(), gate.attempted()),
                0.5),
           "failed_ops_frac rises to 0.5");

    perfbench::OutputGate pinned;
    pinned.pinDigest("fig2", perfbench::digestHex("recorded"));
    expect(!pinned.check("fig2", "rendered"),
           "first output must still match the recorded digest");
    expect(perfbench::digestHex("") == "cbf29ce484222325",
           "FNV-1a offset basis");
}

void
testPrometheus()
{
    std::string text = "# HELP etc_x_total x\n"
                       "# TYPE etc_x_total counter\n"
                       "etc_x_total 3\n"
                       "etc_x_total_more 100\n"
                       "etc_h_seconds_sum{endpoint=\"/v1/a b\"} 0.5\n"
                       "etc_h_seconds_sum{endpoint=\"/v1/c\"} 0.25\n"
                       "etc_h_seconds_count 4\n";
    expect(near(perfbench::prometheusValue(text, "etc_x_total"), 3),
           "exact family name only");
    expect(near(perfbench::prometheusValue(text, "etc_h_seconds_sum"),
                0.75),
           "labelled series sum");
    expect(perfbench::prometheusValue(text, "etc_absent") == 0,
           "absent family reads 0");
}

} // namespace

int
main()
{
    testPercentileRule();
    testMetricNames();
    testSelfTime();
    testOutputGate();
    testPrometheus();
    if (failures) {
        std::cerr << failures << " self-test check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self-test: all checks passed\n";
    return 0;
}
