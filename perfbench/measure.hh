/**
 * @file
 * Measurement helpers of the perfbench harness: sample statistics,
 * the in-memory span recorder and its self-time fold, the output gate
 * that checks figure and query bytes, and a Prometheus text reader
 * for the counters the program exports.
 *
 * Nothing here depends on the program's libraries, so the self-test
 * (selftest.cc) exercises every rule without building a workload.
 */
#ifndef PERFBENCH_MEASURE_HH
#define PERFBENCH_MEASURE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** True when @p name is a valid metric name: 1-64 characters from
 *  [A-Za-z0-9_.-], starting with a letter or a digit. */
bool validMetricName(const std::string &name);

/** Median of @p samples (mean of the middle two for even counts);
 *  0 for an empty vector. */
double median(std::vector<double> samples);

/** Nearest-rank percentile @p p in (0, 1] of @p samples. */
double percentile(std::vector<double> samples, double p);

/** A tail percentile: its label ("p90") and value. */
struct Tail
{
    std::string label;
    double value = 0;
};

/**
 * The highest percentile of the ladder p99.9, p99, p95, p90, p75 that
 * has at least ten samples beyond it (nearest rank: n - ceil(p * n)
 * >= 10), or nullopt when none has.
 */
std::optional<Tail> tailPercentile(const std::vector<double> &samples);

/** One recorded harness span (times in microseconds since the
 *  recorder's epoch). parent is 0 for a root span. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t op = 0; //!< the operation the span belongs to
    std::string name;
    uint64_t startUs = 0;
    uint64_t endUs = 0;
};

/** Per-name totals of a span set. */
struct LayerTime
{
    uint64_t count = 0;
    double totalMs = 0; //!< summed span durations
    double selfMs = 0;  //!< durations minus time covered by children
};

/**
 * Keeps harness spans in memory while recording is on. Spans nest by
 * call order on the recording thread; the harness records from one
 * thread only.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    void setEnabled(bool on) { enabled_ = on; }

    /** Start a new operation id; spans begun until the next call
     *  belong to it. */
    uint64_t beginOperation() { return ++currentOp_; }

    /** Open a span (returns 0 and records nothing when disabled). */
    uint64_t open(const std::string &name);
    /** Close span @p id opened by open(). */
    void close(uint64_t id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Write every span as Chrome Trace Event JSONL (one "ph":"X"
     *  object per line, the format the program's --trace-out uses).
     *  @return false when the file cannot be written. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    /** Microseconds since the recorder was created. */
    uint64_t nowUs() const;

    bool enabled_ = false;
    uint64_t nextId_ = 0;
    uint64_t currentOp_ = 0;
    std::vector<size_t> stack_; //!< indices of open spans
    std::vector<Span> spans_;
    std::chrono::steady_clock::time_point epoch_;
};

/**
 * Fold spans into per-name totals. A span's self time is its duration
 * minus the part of its interval covered by the union of its direct
 * children's intervals.
 */
std::map<std::string, LayerTime> foldSelfTimes(
    const std::vector<Span> &spans);

/** 64-bit FNV-1a digest of @p bytes, as 16 lowercase hex digits. */
std::string digestHex(const std::string &bytes);

/**
 * Checks output bytes. Each labelled output must equal the first
 * bytes seen for that label in this run, the bytes another path
 * produced (expectSame), and, when one is pinned, a recorded digest.
 * Every check counts as one attempted operation; every mismatch as
 * one failed operation with a message.
 */
class OutputGate
{
  public:
    /** Pin @p digest for @p label (checked by every check()). */
    void pinDigest(const std::string &label, const std::string &digest)
    {
        pinned_[label] = digest;
    }

    /** Check @p bytes for @p label; @return true when they pass. */
    bool check(const std::string &label, const std::string &bytes);

    /** Check that two paths produced the same bytes. */
    bool expectSame(const std::string &what, const std::string &expected,
                    const std::string &actual);

    /** Record a failed operation found by some other check. */
    void fail(const std::string &message);
    /** Record one passing operation. */
    void pass() { ++attempted_; }

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failures_.size(); }
    const std::vector<std::string> &failures() const
    {
        return failures_;
    }

  private:
    std::map<std::string, std::string> seen_;
    std::map<std::string, std::string> pinned_;
    std::vector<std::string> failures_;
    uint64_t attempted_ = 0;
};

/** failed / attempted (0 when nothing was attempted). */
double failedFraction(uint64_t failed, uint64_t attempted);

/**
 * Sum every sample of metric family @p name in Prometheus text
 * exposition @p text (all label sets; exact family name, so
 * "x_sum" and "x_count" are read by naming them). 0 when absent.
 */
double prometheusValue(const std::string &text, const std::string &name);

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HH
