/**
 * @file
 * perfbench_harness: the load generator behind perfbench/run.py.
 *
 *   perfbench_harness --workload W --seed N --seconds S --trace 0|1
 *                     --etc-lab PATH --work-dir DIR --out-dir DIR
 *                     [--digests FILE] [--figure-dir DIR]
 *
 * Runs one workload (paper-cold, deep-cells, archive-warm, fleet; see
 * perfbench/README.md) closed-loop for at least S seconds, repeating
 * its fixed work list, and prints one JSON object with the end-to-end
 * metrics, the per-layer metrics and the output-gate tallies.
 *
 * With --trace 1 the iterations alternate untraced and traced. Only
 * untraced iterations feed the end-to-end metrics; traced iterations
 * record harness spans around the calls into each module (kept in
 * memory, written as Chrome trace JSONL at exit), read the telemetry
 * counters the program exports, and turn on the program's own span
 * tracer to split golden-run, gang and drain-lane time.
 */
#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <random>
#include <sstream>
#include <thread>

#include "bench/experiments.hh"
#include "core/query.hh"
#include "core/study.hh"
#include "measure.hh"
#include "service/client.hh"
#include "sim/simulator.hh"
#include "store/index.hh"
#include "store/json.hh"
#include "store/record.hh"
#include "store/result_store.hh"
#include "support/logging.hh"
#include "telemetry/metrics.hh"
#include "telemetry/trace.hh"

extern char **environ;

namespace fs = std::filesystem;
using namespace etc;
using Clock = std::chrono::steady_clock;

namespace {

const std::vector<std::string> FIGURES = {"fig1", "fig2", "fig3",
                                          "fig4", "fig5", "fig6"};

/** The program's default study seed (0xe77): figure digests in
 *  figure_digests.txt are recorded at this seed. */
constexpr uint64_t DEFAULT_SEED = 0xe77;

/** Set-up repetitions of the workloads whose set-up is only workload
 *  construction (milliseconds): setup_s is their median. */
constexpr int SETUP_REPEATS = 21;

/** Derived seeds of the archive's test-scale sweeps. */
constexpr unsigned ARCHIVE_SWEEP_SEEDS = 47;

/** Extra fleet start-ups timed for setup_s before the measured passes
 *  (each pass also times its own). */
constexpr int FLEET_SETUP_REPEATS = 4;

/** Fleet job-status poll interval. */
constexpr auto FLEET_POLL = std::chrono::milliseconds(10);

const core::QueryAgg QUERY_AGGS[] = {
    core::QueryAgg::Cells, core::QueryAgg::Coverage, core::QueryAgg::Curve,
    core::QueryAgg::Delta, core::QueryAgg::Cdf,      core::QueryAgg::Avf};

/** Every per-layer metric with its unit, in report order. */
const std::vector<std::pair<std::string, std::string>> LAYER_METRICS = {
    {"workloads.build_ms", "ms"},
    {"core.study_init_ms", "ms"},
    {"sim.golden_minstr_per_s", "M/s"},
    {"sim.gang_share", "ratio"},
    {"sim.drain_share", "ratio"},
    {"sim.gang_eviction_share", "ratio"},
    {"sim.checkpoint_restores", "count"},
    {"fault.cell_p50_ms", "ms"},
    {"fault.cell_p90_ms", "ms"},
    {"fault.cores_busy", "ratio"},
    {"fault.trials_simulated", "count"},
    {"fault.trials_pruned", "count"},
    {"fidelity.score_us", "us"},
    {"store.encode_us", "us"},
    {"store.decode_us", "us"},
    {"store.cell_write_ms", "ms"},
    {"store.cell_read_ms", "ms"},
    {"store.index_load_ms", "ms"},
    {"store.index_rebuild_ms", "ms"},
    {"core.query_ms.cells", "ms"},
    {"core.query_ms.coverage", "ms"},
    {"core.query_ms.curve", "ms"},
    {"core.query_ms.delta", "ms"},
    {"core.query_ms.cdf", "ms"},
    {"core.query_ms.avf", "ms"},
    {"core.records_per_query", "ratio"},
    {"core.report_ms", "ms"},
    {"service.http_rtt_us", "us"},
    {"service.submit_ms", "ms"},
    {"service.polls_per_job", "count"},
    {"service.server_request_mean_us", "us"},
    {"service.leases_issued", "count"},
    {"service.lease_reissue_share", "ratio"},
    {"service.worker_busy_share", "ratio"},
    {"harness.trace_overhead_s", "s"},
};

/** deep-cells: low error counts, many trials per cell. */
struct DeepCell
{
    const char *experiment;
    unsigned errors;
    const char *policy;
    unsigned trials;
};
const std::vector<DeepCell> DEEP_CELLS = {
    {"fig2", 1, "protected", 600},
    {"fig4", 1, "unprotected", 1200},
    {"fig5", 2, "protected", 1200},
    {"fig1", 5, "unprotected", 600},
};

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_utime.tv_sec + usage.ru_stime.tv_sec +
           (usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) / 1e6;
}

/** CPU seconds of this process plus its reaped children. */
double
processTreeCpuSeconds()
{
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    return cpuSeconds() + children.ru_utime.tv_sec +
           children.ru_stime.tv_sec +
           (children.ru_utime.tv_usec + children.ru_stime.tv_usec) / 1e6;
}

double
peakRssMb(int who)
{
    rusage usage{};
    getrusage(who, &usage);
    return usage.ru_maxrss / 1024.0;
}

unsigned
cores()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return CPU_COUNT(&set);
    return std::max(1u, std::thread::hardware_concurrency());
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

const bench::Experiment &
experiment(const std::string &name)
{
    const bench::Experiment *exp = bench::findExperiment(name);
    if (!exp)
        fatal("experiment '", name, "' is not registered");
    return *exp;
}

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value))
        value = 0;
    char text[40];
    std::snprintf(text, sizeof(text), "%.17g", value);
    return text;
}

/** A spawned child process with stdout+stderr sent to a log file. */
class ChildProcess
{
  public:
    ChildProcess(const std::vector<std::string> &argv,
                 const std::string &logPath)
        : log_(logPath)
    {
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, logPath.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        std::vector<char *> args;
        for (const auto &arg : argv)
            args.push_back(const_cast<char *>(arg.c_str()));
        args.push_back(nullptr);
        int rc = posix_spawn(&pid_, args[0], &actions, nullptr,
                             args.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0)
            fatal("cannot start ", argv[0], ": ", std::strerror(rc));
    }

    ~ChildProcess()
    {
        if (pid_ > 0) {
            kill(pid_, SIGKILL);
            waitpid(pid_, nullptr, 0);
        }
    }
    ChildProcess(const ChildProcess &) = delete;
    ChildProcess &operator=(const ChildProcess &) = delete;

    const std::string &log() const { return log_; }

    /** SIGTERM, wait up to @p timeout, then SIGKILL.
     *  @return true when the process exited with status 0. */
    bool
    stop(std::chrono::milliseconds timeout = std::chrono::seconds(10))
    {
        if (pid_ <= 0)
            return false;
        kill(pid_, SIGTERM);
        auto deadline = Clock::now() + timeout;
        int status = 0;
        while (waitpid(pid_, &status, WNOHANG) == 0) {
            if (Clock::now() > deadline) {
                kill(pid_, SIGKILL);
                waitpid(pid_, &status, 0);
                pid_ = -1;
                return false;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
    }

  private:
    pid_t pid_ = -1;
    std::string log_;
};

struct Args
{
    std::string workload;
    uint64_t seed = DEFAULT_SEED;
    unsigned seconds = 10;
    bool trace = false;
    std::string etcLab;
    std::string workDir;
    std::string outDir;
    std::string digests;
    std::string figureDir;
};

/** Work done by one pass over a workload's fixed work list. */
struct Iteration
{
    bool traced = false;
    double wallS = 0;
    double cpuS = 0; //!< CPU seconds of this process and reaped children
    uint64_t trials = 0;
    uint64_t instructions = 0;
    uint64_t ops = 0;
};

/** Samples of one per-layer quantity (traced iterations only). */
struct Samples
{
    std::vector<double> values;
    void add(double v) { values.push_back(v); }
    double
    mean() const
    {
        double sum = 0;
        for (double v : values)
            sum += v;
        return values.empty() ? 0 : sum / values.size();
    }
};

class Harness;

/**
 * Times one call into a module while the harness traces: a span, and
 * with @p metric set one sample of that per-layer metric, in @p scale
 * units per second.
 */
class Timed
{
  public:
    Timed(Harness &harness, const char *span, const char *metric,
          double scale);
    ~Timed();
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Harness &harness_;
    const char *metric_;
    double scale_;
    uint64_t span_ = 0;
    Clock::time_point start_;
};

constexpr double MS = 1e3;
constexpr double US = 1e6;

class Harness
{
  public:
    explicit Harness(Args args) : args_(std::move(args))
    {
        opts_.seed = args_.seed;
        loadDigests();
    }

    int run();

    perfbench::SpanRecorder recorder;
    std::map<std::string, Samples> layer;
    bool traced = false;

  private:
    using Body = std::function<void(Iteration &)>;

    void loadDigests();
    /** Record set-up calls too when this is a traced run. */
    void
    setupTracing(bool on)
    {
        traced = on && args_.trace;
        recorder.setEnabled(traced);
    }
    void runLoop(const Body &body, bool programTracer);
    void checkFigure(const std::string &name, const std::string &bytes);

    // Calls into the program, instrumented.
    std::unique_ptr<workloads::Workload>
    buildWorkload(const bench::Experiment &exp);
    std::string runFigure(const bench::Experiment &exp,
                          store::ResultStore &store, Iteration &it,
                          std::vector<store::CellKey> &keys);
    core::CellSummary runCell(const workloads::Workload &workload,
                              core::ErrorToleranceStudy &study,
                              unsigned errors, const std::string &policy,
                              unsigned trials, Iteration &it);
    void goldenProbe(const workloads::Workload &workload);
    /** Decode and re-encode a record (both timed); the bytes must
     *  round-trip. */
    void codecProbe(const store::CellKey &key, const std::string &text);
    /** Encode @p summary (timed), then codecProbe() the bytes. */
    void codecProbe(const store::CellKey &key,
                    const core::CellSummary &summary);
    std::string reportFigure(const bench::Experiment &exp,
                             const std::string &root);
    void indexCheck(const std::string &root, uint64_t cells);
    std::string query(const std::string &root,
                      const core::QueryOptions &options);
    void readCells(const std::string &root,
                   const std::vector<store::CellKey> &keys);
    void readProbe(const std::string &root,
                   const std::vector<store::CellKey> &keys);

    // The workloads.
    void paperCold();
    void deepCells();
    void archiveWarm();
    void fleet();

    void buildArchive(const std::string &root);
    uint64_t counter(const char *name) const;
    void emit();

    Args args_;
    bench::BenchOptions opts_;
    perfbench::OutputGate gate_;
    std::vector<double> setupS_;
    std::vector<Iteration> iterations_;
    std::vector<double> opMs_; //!< untraced op latencies
    std::string opName_ = "op";
    /** Layer values a workload computes itself (override the
     *  generic fold in emit()). */
    std::map<std::string, double> extraLayers_;
    std::map<std::string, std::string> figureDigests_;

    // Traced-iteration accumulators.
    double campaignCpuS_ = 0, campaignWallS_ = 0;
    double gangUs_ = 0, drainUs_ = 0;
    double goldenInstr_ = 0, goldenS_ = 0;
    std::map<std::string, double> counterDelta_; //!< summed over traced
    unsigned tracedIterations_ = 0;
    uint64_t recordsLoaded_ = 0, cellsMatched_ = 0; //!< traced queries
    double peakRssMb_ = 0;
};

Timed::Timed(Harness &harness, const char *span, const char *metric,
             double scale)
    : harness_(harness), metric_(metric), scale_(scale),
      start_(Clock::now())
{
    if (harness_.traced)
        span_ = harness_.recorder.open(span);
}

Timed::~Timed()
{
    if (!harness_.traced)
        return;
    harness_.recorder.close(span_);
    if (metric_)
        harness_.layer[metric_].add(secondsSince(start_) * scale_);
}

void
Harness::loadDigests()
{
    if (args_.digests.empty() || args_.seed != DEFAULT_SEED)
        return;
    std::ifstream in(args_.digests);
    std::string name, digest;
    while (in >> name >> digest)
        gate_.pinDigest(name, digest);
}

uint64_t
Harness::counter(const char *name) const
{
    return static_cast<uint64_t>(perfbench::prometheusValue(
        telemetry::renderPrometheus(), name));
}

void
Harness::runLoop(const Body &body, bool programTracer)
{
    static const char *COUNTERS[] = {
        "etc_trials_simulated_total",   "etc_trials_pruned_total",
        "etc_gang_lane_evictions_total", "etc_gang_lanes_total",
        "etc_checkpoint_restores_total",
    };
    auto start = Clock::now();
    bool untracedDone = false, tracedDone = !args_.trace;
    for (unsigned k = 0;; ++k) {
        if (secondsSince(start) >= args_.seconds && untracedDone &&
            tracedDone)
            break;
        traced = args_.trace && k % 2 == 1;
        recorder.setEnabled(traced);
        std::map<std::string, uint64_t> before;
        for (const char *name : COUNTERS)
            before[name] = counter(name);
        std::string tracePath = args_.outDir + "/program-trace-" +
                                std::to_string(k) + ".jsonl";
        if (traced && programTracer)
            telemetry::Tracer::instance().open(tracePath);

        // A body that times only part of its pass sets wallS itself.
        Iteration it;
        it.traced = traced;
        auto t0 = Clock::now();
        double cpu0 = processTreeCpuSeconds();
        body(it);
        it.cpuS = processTreeCpuSeconds() - cpu0;
        if (it.wallS == 0)
            it.wallS = secondsSince(t0);

        if (traced && programTracer) {
            telemetry::Tracer::instance().close();
            std::ifstream events(tracePath);
            std::string line;
            while (std::getline(events, line)) {
                size_t dur = line.find("\"dur\":");
                if (dur == std::string::npos)
                    continue;
                double us = std::strtod(line.c_str() + dur + 6, nullptr);
                if (line.find("\"name\":\"gang\"") != std::string::npos)
                    gangUs_ += us;
                else if (line.find("\"name\":\"drain-lane\"") !=
                         std::string::npos)
                    drainUs_ += us;
            }
        }
        if (traced) {
            ++tracedIterations_;
            for (const char *name : COUNTERS)
                counterDelta_[name] +=
                    double(counter(name) - before[name]);
        }
        (traced ? tracedDone : untracedDone) = true;
        iterations_.push_back(it);
    }
    traced = false;
    recorder.setEnabled(false);
}

void
Harness::checkFigure(const std::string &name, const std::string &bytes)
{
    gate_.check(name, bytes);
    figureDigests_[name] = perfbench::digestHex(bytes);
    if (args_.figureDir.empty())
        return;
    // Figures of one seed must be byte-identical whichever path
    // (direct, archive report, fleet fetch) rendered them; the first
    // run in this checkout records them for the others.
    char seedHex[24];
    std::snprintf(seedHex, sizeof(seedHex), "seed-%llx",
                  static_cast<unsigned long long>(args_.seed));
    fs::path dir = fs::path(args_.figureDir) / seedHex;
    fs::path file = dir / (name + ".txt");
    if (fs::exists(file)) {
        gate_.expectSame(name + " vs. " + file.string(), readFile(file),
                         bytes);
    } else {
        fs::create_directories(dir);
        std::string staging = file.string() + "." +
                              std::to_string(getpid());
        writeFile(staging, bytes);
        fs::rename(staging, file);
    }
}

std::unique_ptr<workloads::Workload>
Harness::buildWorkload(const bench::Experiment &exp)
{
    Timed t(*this, "workloads.createWorkload", "workloads.build_ms", MS);
    return workloads::createWorkload(exp.workload, exp.scale);
}

void
Harness::goldenProbe(const workloads::Workload &workload)
{
    sim::Simulator simulator(workload.program());
    auto start = Clock::now();
    sim::RunResult result;
    {
        Timed t(*this, "sim.Simulator.run", nullptr, MS);
        result = simulator.run();
    }
    goldenS_ += secondsSince(start);
    goldenInstr_ += double(result.instructions);
}

core::CellSummary
Harness::runCell(const workloads::Workload &workload,
                 core::ErrorToleranceStudy &study, unsigned errors,
                 const std::string &policy, unsigned trials,
                 Iteration &it)
{
    double cpu0 = cpuSeconds();
    auto start = Clock::now();
    core::CellSummary summary;
    {
        Timed t(*this, "fault.runCell", "fault.cell_ms", MS);
        summary = study.runCell(errors, policy, trials);
    }
    it.trials += summary.trials;
    it.instructions += summary.totalInstructions;
    if (!traced)
        return summary;
    campaignWallS_ += secondsSince(start);
    campaignCpuS_ += cpuSeconds() - cpu0;

    // Score one perturbed copy of the golden output: the cost of a
    // fidelity evaluation on this cell's output size.
    std::vector<uint8_t> output = study.goldenOutput();
    if (!output.empty())
        output[(args_.seed + errors) % output.size()] ^= 0x5a;
    Timed t(*this, "workload.scoreFidelity", "fidelity.score_us", US);
    workload.scoreFidelity(study.goldenOutput(), output);
    return summary;
}

void
Harness::codecProbe(const store::CellKey &key, const std::string &text)
{
    core::CellSummary decoded;
    try {
        Timed t(*this, "store.decodeCellRecord", "store.decode_us", US);
        decoded = store::decodeCellRecord(text, &key);
    } catch (const std::exception &e) {
        gate_.fail("record " + key.fingerprint() + ": " + e.what());
        return;
    }
    std::string encoded;
    {
        Timed t(*this, "store.encodeCellRecord", "store.encode_us", US);
        encoded = store::encodeCellRecord(key, decoded);
    }
    gate_.expectSame("record " + key.fingerprint() + " round trip", text,
                     encoded);
}

void
Harness::codecProbe(const store::CellKey &key,
                    const core::CellSummary &summary)
{
    std::string text;
    {
        Timed t(*this, "store.encodeCellRecord", "store.encode_us", US);
        text = store::encodeCellRecord(key, summary);
    }
    codecProbe(key, text);
}

std::string
Harness::runFigure(const bench::Experiment &exp, store::ResultStore &store,
                   Iteration &it, std::vector<store::CellKey> &keys)
{
    auto workload = buildWorkload(exp);
    auto config = bench::makeStudyConfig(exp, opts_);
    std::unique_ptr<core::ErrorToleranceStudy> study;
    {
        Timed t(*this, "core.ErrorToleranceStudy", "core.study_init_ms",
                MS);
        study = std::make_unique<core::ErrorToleranceStudy>(*workload,
                                                            config);
    }
    if (traced)
        goldenProbe(*workload);
    auto policies = bench::sweepPolicies(exp, opts_);
    unsigned trials = opts_.trialsOr(exp.defaultTrials);
    std::vector<core::CellSummary> summaries;
    for (auto [errors, policy] : bench::experimentCells(exp, policies)) {
        summaries.push_back(
            runCell(*workload, *study, errors, policy, trials, it));
        auto key = study->cellKey(errors, policy, trials);
        keys.push_back(key);
        {
            Timed t(*this, "store.ResultStore.storeCell",
                    "store.cell_write_ms", MS);
            store.storeCell(key, summaries.back());
        }
        if (traced)
            codecProbe(key, summaries.back());
    }
    std::ostringstream os;
    Timed t(*this, "bench.renderExperiment", nullptr, MS);
    bench::renderExperiment(os, exp, policies,
                            bench::sweepPointsFrom(exp, policies,
                                                   summaries));
    return os.str();
}

std::string
Harness::reportFigure(const bench::Experiment &exp,
                      const std::string &root)
{
    Timed report(*this, "core.report", "core.report_ms", MS);
    store::ResultStore cache(root);
    bench::StoredSweep sweep;
    {
        Timed t(*this, "bench.loadExperimentFromStore", nullptr, MS);
        sweep = bench::loadExperimentFromStore(exp, opts_, cache);
    }
    if (!sweep.complete()) {
        gate_.fail(exp.name + ": " + std::to_string(sweep.missing.size()) +
                   " cells missing from " + root);
        return {};
    }
    std::ostringstream os;
    Timed t(*this, "bench.renderExperiment", nullptr, MS);
    bench::renderExperiment(os, exp, bench::sweepPolicies(exp, opts_),
                            sweep.points);
    return os.str();
}

void
Harness::indexCheck(const std::string &root, uint64_t cells)
{
    store::StoreIndex index(root);
    {
        Timed t(*this, "store.StoreIndex.load", "store.index_load_ms", MS);
        index.load();
    }
    uint64_t complete = 0;
    for (const auto &entry : index.entries())
        complete += entry.second.complete;
    if (complete == cells)
        gate_.pass();
    else
        gate_.fail("index of " + root + " lists " +
                   std::to_string(complete) + " complete cells, expected " +
                   std::to_string(cells));
}

std::string
Harness::query(const std::string &root, const core::QueryOptions &options)
{
    std::string metric =
        std::string("core.query_ms.") + core::queryAggName(options.agg);
    Timed t(*this, "core.runQuery", metric.c_str(), MS);
    auto report = core::runQuery(root, options);
    if (traced) {
        recordsLoaded_ += report.recordsLoaded;
        cellsMatched_ += report.cellsMatched;
    }
    return std::move(report.json);
}

void
Harness::readCells(const std::string &root,
                   const std::vector<store::CellKey> &keys)
{
    store::ResultStore cache(root);
    for (const auto &key : keys) {
        {
            Timed t(*this, "store.ResultStore.loadCell", "store.cell_read_ms",
                    MS);
            if (!cache.loadCell(key))
                gate_.fail("cell " + key.fingerprint() + " unreadable");
        }
        codecProbe(key, readFile(root + "/cells/" + key.fingerprint() +
                                 ".jsonl"));
    }
}

void
Harness::readProbe(const std::string &root,
                   const std::vector<store::CellKey> &keys)
{
    // The archive read path over this pass's store: reindex, every
    // aggregation unfiltered and per figure workload, every cell read
    // back. None of it may simulate.
    uint64_t simulated = counter("etc_trials_simulated_total");
    {
        Timed t(*this, "store.StoreIndex.rebuild", "store.index_rebuild_ms",
                MS);
        store::StoreIndex(root).rebuild();
    }
    for (core::QueryAgg agg : QUERY_AGGS) {
        std::vector<std::string> filters = {""};
        for (const auto &name : FIGURES)
            filters.push_back(experiment(name).workload);
        for (const auto &workload : filters) {
            if (agg == core::QueryAgg::Avf && workload.empty())
                continue;
            core::QueryOptions options;
            options.agg = agg;
            options.filter.workload = workload;
            gate_.check(std::string("probe query ") +
                            core::queryAggName(agg) + " " + workload,
                        query(root, options));
        }
    }
    readCells(root, keys);
    if (counter("etc_trials_simulated_total") != simulated)
        gate_.fail("the read path simulated trials");
    else
        gate_.pass();
}

// ---- paper-cold -------------------------------------------------------

void
Harness::paperCold()
{
    opName_ = "figure";
    setupTracing(true);
    for (int rep = 0; rep < SETUP_REPEATS; ++rep) {
        auto start = Clock::now();
        for (const auto &name : FIGURES)
            buildWorkload(experiment(name));
        setupS_.push_back(secondsSince(start));
    }
    setupTracing(false);

    unsigned pass = 0;
    runLoop(
        [&](Iteration &it) {
            std::string root =
                args_.workDir + "/paper-cold-" + std::to_string(pass);
            fs::remove_all(root);
            std::map<std::string, std::string> direct;
            std::vector<store::CellKey> keys;
            auto passStart = Clock::now();
            {
                store::ResultStore store(root);
                for (const auto &name : FIGURES) {
                    recorder.beginOperation();
                    auto start = Clock::now();
                    {
                        Timed t(*this, "paper.figure", nullptr, MS);
                        direct[name] =
                            runFigure(experiment(name), store, it, keys);
                    }
                    if (!traced)
                        opMs_.push_back(secondsSince(start) * MS);
                    ++it.ops;
                    checkFigure(name, direct[name]);
                }
            }
            it.wallS = secondsSince(passStart);
            // Outside the timed list's ops, but inside the iteration:
            // the store written against must report the same bytes.
            if (pass == 0 || traced) {
                for (const auto &name : FIGURES)
                    gate_.expectSame(name + " direct vs. report",
                                     direct[name],
                                     reportFigure(experiment(name), root));
                indexCheck(root, keys.size());
            }
            fs::remove_all(root);
            ++pass;
        },
        true);
    peakRssMb_ = peakRssMb(RUSAGE_SELF);
}

// ---- deep-cells -------------------------------------------------------

void
Harness::deepCells()
{
    opName_ = "cell";
    std::vector<std::unique_ptr<workloads::Workload>> built(
        DEEP_CELLS.size());
    setupTracing(true);
    for (int rep = 0; rep < SETUP_REPEATS; ++rep) {
        auto start = Clock::now();
        for (size_t i = 0; i < DEEP_CELLS.size(); ++i)
            built[i] = buildWorkload(experiment(DEEP_CELLS[i].experiment));
        setupS_.push_back(secondsSince(start));
    }
    setupTracing(false);

    unsigned pass = 0;
    runLoop(
        [&](Iteration &it) {
            // Traced passes also write the cells (a few large records)
            // to a fresh store, outside the timed cell operations.
            std::string root =
                args_.workDir + "/deep-cells-" + std::to_string(pass++);
            std::unique_ptr<store::ResultStore> written;
            if (traced)
                written = std::make_unique<store::ResultStore>(root);
            for (size_t i = 0; i < DEEP_CELLS.size(); ++i) {
                const DeepCell &cell = DEEP_CELLS[i];
                const auto &exp = experiment(cell.experiment);
                recorder.beginOperation();
                std::unique_ptr<core::ErrorToleranceStudy> study;
                {
                    Timed t(*this, "core.ErrorToleranceStudy",
                            "core.study_init_ms", MS);
                    study = std::make_unique<core::ErrorToleranceStudy>(
                        *built[i], bench::makeStudyConfig(exp, opts_));
                }
                if (traced)
                    goldenProbe(*built[i]);
                auto start = Clock::now();
                auto summary = runCell(*built[i], *study, cell.errors,
                                       cell.policy, cell.trials, it);
                if (!traced)
                    opMs_.push_back(secondsSince(start) * MS);
                ++it.ops;
                auto key = study->cellKey(cell.errors, cell.policy,
                                          cell.trials);
                if (traced) {
                    codecProbe(key, summary);
                    Timed t(*this, "store.ResultStore.storeCell",
                            "store.cell_write_ms", MS);
                    written->storeCell(key, summary);
                }
                // Tallies and fidelity bits must repeat exactly: the
                // record bytes minus the wall-clock field.
                summary.wallSeconds = 0;
                gate_.check(std::string("deep-cell ") + cell.experiment +
                                "/" + std::to_string(cell.errors) + "/" +
                                cell.policy,
                            store::encodeCellRecord(key, summary));
            }
            if (traced) {
                indexCheck(root, DEEP_CELLS.size());
                fs::remove_all(root);
            }
        },
        true);
    peakRssMb_ = peakRssMb(RUSAGE_SELF);
}

// ---- archive-warm -----------------------------------------------------

void
Harness::buildArchive(const std::string &root)
{
    // Tasks: the paper figures at the workload seed, then the
    // test-scale sweeps at derived seeds. Figures first: they are the
    // long ones.
    struct Task
    {
        std::string experiment;
        uint64_t seed;
    };
    std::vector<Task> tasks;
    for (const auto &name : FIGURES)
        tasks.push_back({name, args_.seed});
    for (unsigned k = 1; k <= ARCHIVE_SWEEP_SEEDS; ++k)
        for (const char *name : {"smoke", "ablation_policies"})
            tasks.push_back({name, args_.seed + 0x9e37ull * k});

    fs::create_directories(root + "/direct");
    std::atomic<size_t> next{0};
    std::atomic<bool> failed{false};
    auto worker = [&] {
        store::ResultStore store(root);
        for (size_t i; (i = next++) < tasks.size();) {
            try {
                const auto &exp = experiment(tasks[i].experiment);
                bench::BenchOptions opts;
                opts.seed = tasks[i].seed;
                opts.threads = 1;
                auto workload =
                    workloads::createWorkload(exp.workload, exp.scale);
                core::ErrorToleranceStudy study(
                    *workload, bench::makeStudyConfig(exp, opts));
                auto policies = bench::sweepPolicies(exp, opts);
                unsigned trials = opts.trialsOr(exp.defaultTrials);
                std::vector<core::CellSummary> summaries;
                for (auto [errors, policy] :
                     bench::experimentCells(exp, policies)) {
                    summaries.push_back(
                        study.runCell(errors, policy, trials));
                    store.storeCell(study.cellKey(errors, policy, trials),
                                    summaries.back());
                }
                if (tasks[i].seed == args_.seed) {
                    std::ostringstream os;
                    bench::renderExperiment(
                        os, exp, policies,
                        bench::sweepPointsFrom(exp, policies, summaries));
                    writeFile(root + "/direct/" + exp.name + ".txt",
                              os.str());
                }
            } catch (const std::exception &e) {
                std::cerr << "archive build: " << e.what() << '\n';
                failed = true;
            }
        }
    };
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < cores(); ++t)
        threads.emplace_back(worker);
    for (auto &thread : threads)
        thread.join();
    if (failed)
        fatal("building the archive at ", root, " failed");
}

void
Harness::archiveWarm()
{
    opName_ = "read";
    // Set-up: build the archive in a child process (so the reads'
    // peak RSS is this process's own), then rebuild its index.
    std::string root;
    for (int rep = 0; rep < 3; ++rep) {
        if (!root.empty())
            fs::remove_all(root);
        root = args_.workDir + "/archive-" + std::to_string(rep);
        fs::remove_all(root);
        auto start = Clock::now();
        std::cout.flush();
        std::cerr.flush();
        pid_t pid = fork();
        if (pid < 0)
            fatal("fork failed");
        if (pid == 0) {
            int code = 0;
            try {
                buildArchive(root);
            } catch (const std::exception &e) {
                std::cerr << e.what() << '\n';
                code = 1;
            }
            std::cerr.flush();
            _exit(code);
        }
        int status = 0;
        waitpid(pid, &status, 0);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            fatal("archive set-up child failed");
        setupTracing(true);
        {
            Timed t(*this, "store.StoreIndex.rebuild",
                    "store.index_rebuild_ms", MS);
            store::StoreIndex(root).rebuild();
        }
        setupTracing(false);
        setupS_.push_back(secondsSince(start));
    }

    std::map<std::string, std::string> direct;
    std::map<std::string, std::vector<store::CellKey>> keys;
    for (const auto &name : FIGURES) {
        direct[name] = readFile(root + "/direct/" + name + ".txt");
        checkFigure(name, direct[name]);
        keys[name] = bench::experimentCellKeys(experiment(name), opts_);
    }

    // A fixed, seeded mix of operations: every figure report plus
    // queries of every aggregation under varied filters.
    struct Op
    {
        std::string figure; //!< empty for a query
        core::QueryOptions query;
    };
    std::mt19937_64 rng(args_.seed);
    auto pick = [&](size_t n) { return size_t(rng() % n); };
    const auto &workloadsInArchive = workloads::workloadNames();
    const auto &policyNames = experiment("ablation_policies").policies;
    const std::vector<unsigned> errorCounts = {1, 3, 5, 10, 20, 100, 500};
    std::vector<Op> ops;
    for (const auto &name : FIGURES)
        ops.push_back({name, {}});
    for (core::QueryAgg agg : QUERY_AGGS) {
        for (int variant = 0; variant < 7; ++variant) {
            core::QueryOptions q;
            q.agg = agg;
            // Variant 0 has no filter (avf needs a workload); the rest
            // draw one to three axes.
            if (agg == core::QueryAgg::Avf || (variant > 0 && rng() % 2))
                q.filter.workload =
                    workloadsInArchive[pick(workloadsInArchive.size())];
            if (variant > 0 && rng() % 2)
                for (int n = 1 + pick(2); n > 0; --n)
                    q.filter.policies.push_back(
                        policyNames[pick(policyNames.size())]);
            if (variant > 0 && rng() % 3 == 0)
                q.filter.errors.push_back(
                    errorCounts[pick(errorCounts.size())]);
            if (variant > 0 && rng() % 4 == 0)
                q.filter.seed =
                    args_.seed +
                    0x9e37ull * (1 + pick(ARCHIVE_SWEEP_SEEDS));
            ops.push_back({{}, q});
        }
    }
    std::shuffle(ops.begin(), ops.end(), rng);

    uint64_t cells = 0;
    for (const auto &name : FIGURES)
        cells += keys[name].size();
    cells += ARCHIVE_SWEEP_SEEDS *
             (bench::experimentCells(experiment("smoke")).size() +
              bench::experimentCells(experiment("ablation_policies")).size());
    runLoop(
        [&](Iteration &it) {
            uint64_t simulated = counter("etc_trials_simulated_total");
            if (traced)
                indexCheck(root, cells);
            for (size_t i = 0; i < ops.size(); ++i) {
                const Op &op = ops[i];
                recorder.beginOperation();
                auto start = Clock::now();
                std::string bytes;
                try {
                    if (!op.figure.empty()) {
                        Timed t(*this, "archive.report", nullptr, MS);
                        bytes = reportFigure(experiment(op.figure), root);
                    } else {
                        bytes = query(root, op.query);
                    }
                } catch (const std::exception &e) {
                    gate_.fail("op " + std::to_string(i) + ": " +
                               e.what());
                    continue;
                }
                if (!traced)
                    opMs_.push_back(secondsSince(start) * MS);
                ++it.ops;
                if (!op.figure.empty()) {
                    gate_.expectSame(op.figure + " report vs. direct",
                                     direct[op.figure], bytes);
                    if (traced)
                        readCells(root, keys[op.figure]);
                } else {
                    gate_.check("query " + std::to_string(i), bytes);
                }
            }
            if (counter("etc_trials_simulated_total") != simulated)
                gate_.fail("archive-warm simulated trials");
            else
                gate_.pass();
        },
        false);
    peakRssMb_ = peakRssMb(RUSAGE_SELF);
    fs::remove_all(root);
}

// ---- fleet ------------------------------------------------------------

/**
 * One cold fleet: a coordinator-only daemon (`etc_lab serve --workers
 * 0`, the seed set on serve because it is daemon-wide) and its
 * single-thread `etc_lab work` agents, each with its own store under
 * @p dir. The constructor returns once every agent has registered.
 */
class Fleet
{
  public:
    Fleet(const std::string &etcLab, const std::string &dir,
          uint64_t seed, unsigned workers)
    {
        fs::remove_all(dir);
        fs::create_directories(dir);
        serve_ = std::make_unique<ChildProcess>(
            std::vector<std::string>{etcLab, "serve", "--port", "0",
                                     "--workers", "0", "--cache-dir",
                                     dir + "/coordinator", "--seed",
                                     std::to_string(seed)},
            dir + "/serve.log");
        const std::string banner = "serving campaign API on "
                                   "http://127.0.0.1:";
        auto deadline = Clock::now() + std::chrono::seconds(20);
        while (!port_) {
            std::string log = readFile(serve_->log());
            size_t at = log.find(banner);
            if (at != std::string::npos)
                port_ = static_cast<uint16_t>(
                    std::atoi(log.c_str() + at + banner.size()));
            else if (Clock::now() > deadline)
                fatal("the coordinator did not start: ", log);
            else
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        std::string url = "http://127.0.0.1:" + std::to_string(port_);
        for (unsigned w = 0; w < workers; ++w) {
            std::string name = "w" + std::to_string(w);
            workers_.push_back(std::make_unique<ChildProcess>(
                std::vector<std::string>{etcLab, "work", "--coordinator",
                                         url, "--cache-dir",
                                         dir + "/" + name, "--workers", "1",
                                         "--threads", "1", "--name", name},
                dir + "/" + name + ".log"));
        }
        service::Client client("127.0.0.1", port_);
        while (true) {
            auto state = client.get("/v1/fleet");
            if (state.ok() &&
                store::parseJson(state.body).at("workers").asU64() == workers)
                break;
            if (Clock::now() > deadline)
                fatal("the fleet's work agents did not register");
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }

    uint16_t port() const { return port_; }

    /** Stop the agents, then the coordinator.
     *  @return one message per process that did not exit cleanly. */
    std::vector<std::string>
    stop()
    {
        std::vector<std::string> failures;
        for (auto &worker : workers_)
            if (!worker->stop())
                failures.push_back("work agent exited nonzero: " +
                                   readFile(worker->log()));
        if (!serve_->stop())
            failures.push_back("coordinator exited nonzero: " +
                               readFile(serve_->log()));
        return failures;
    }

  private:
    // Declared first, destroyed last: agents go before their
    // coordinator when an exception unwinds.
    std::unique_ptr<ChildProcess> serve_;
    std::vector<std::unique_ptr<ChildProcess>> workers_;
    uint16_t port_ = 0;
};

void
Harness::fleet()
{
    opName_ = "job";
    const std::vector<std::string> jobs = {
        "fig1", "fig2",  "fig3",      "fig4",             "fig5",
        "fig6", "smoke", "smoke-gsm", "ablation_policies"};
    const unsigned WORKERS = 2;
    uint64_t cells = 0;
    for (const auto &job : jobs)
        cells += bench::experimentCells(experiment(job)).size();

    auto stopFleet = [&](Fleet &fleet) {
        auto failures = fleet.stop();
        if (failures.empty())
            gate_.pass();
        for (const auto &failure : failures)
            gate_.fail(failure);
    };
    // Set-up samples beyond the one each pass takes: start-up and
    // registration only.
    for (int rep = 0; rep < FLEET_SETUP_REPEATS; ++rep) {
        std::string dir = args_.workDir + "/fleet-setup";
        auto start = Clock::now();
        Fleet fleet(args_.etcLab, dir, args_.seed, WORKERS);
        setupS_.push_back(secondsSince(start));
        stopFleet(fleet);
        fs::remove_all(dir);
    }

    double submitMs = 0, httpSum = 0, httpCount = 0;
    double leasesIssued = 0, leasesReissued = 0;
    double busyS = 0, jobLatencyS = 0, polls = 0, tracedJobs = 0;
    uint64_t trialsSimulated = 0;
    unsigned pass = 0;
    runLoop(
        [&](Iteration &it) {
            std::string dir = args_.workDir + "/fleet-" + std::to_string(pass);
            std::string coordinatorStore = dir + "/coordinator";
            auto setupStart = Clock::now();
            Fleet fleet(args_.etcLab, dir, args_.seed, WORKERS);
            setupS_.push_back(secondsSince(setupStart));
            service::Client client("127.0.0.1", fleet.port());

            // The timed work: one job at a time, polled to completion.
            auto workStart = Clock::now();
            for (const auto &job : jobs) {
                recorder.beginOperation();
                auto start = Clock::now();
                Timed jobSpan(*this, "fleet.job", nullptr, MS);
                service::Client::Response response;
                {
                    Timed t(*this, "service.Client.post", nullptr, MS);
                    response = client.post(
                        "/v1/jobs", "{\"experiment\":\"" + job + "\"}");
                    if (traced)
                        submitMs += secondsSince(start) * MS;
                }
                ++it.ops;
                if (response.status != 202) {
                    gate_.fail("POST /v1/jobs " + job + ": HTTP " +
                               std::to_string(response.status));
                    continue;
                }
                std::string id =
                    store::parseJson(response.body).at("job").asString();
                std::string state;
                store::JsonValue status;
                unsigned jobPolls = 0;
                while (state != "done" && state != "failed" &&
                       secondsSince(start) < 150) {
                    std::this_thread::sleep_for(FLEET_POLL);
                    Timed t(*this, "service.Client.get", nullptr, MS);
                    response = client.get("/v1/jobs/" + id);
                    ++jobPolls;
                    if (!response.ok())
                        break;
                    status = store::parseJson(response.body);
                    state = status.at("state").asString();
                }
                double latency = secondsSince(start);
                if (state != "done") {
                    gate_.fail("job " + job + " ended in state '" + state +
                               "' (HTTP " + std::to_string(response.status) +
                               ")");
                    continue;
                }
                gate_.pass();
                it.trials += status.at("trialsExecuted").asU64();
                if (!traced) {
                    opMs_.push_back(latency * MS);
                    continue;
                }
                polls += jobPolls;
                tracedJobs += 1;
                jobLatencyS += latency;
                for (const auto &cell : status.at("cells").elements)
                    busyS += std::strtod(
                        cell.at("wallSeconds").text.c_str(), nullptr);
                Timed t(*this, "service.Client.get", "service.http_rtt_us",
                        US);
                client.get("/v1/healthz");
            }
            it.wallS = secondsSince(workStart);
            trialsSimulated += it.trials;

            // Checks: each fetched figure is byte-identical to every
            // other path and to an offline report of the coordinator's
            // store; the lease fabric re-issued nothing.
            for (const auto &name : FIGURES) {
                auto figure = client.get("/v1/figures/" + name);
                if (!figure.ok()) {
                    gate_.fail("GET /v1/figures/" + name + ": HTTP " +
                               std::to_string(figure.status));
                    continue;
                }
                checkFigure(name, figure.body);
                if (pass == 0 || traced)
                    gate_.expectSame(
                        name + " fetch vs. offline report", figure.body,
                        reportFigure(experiment(name), coordinatorStore));
            }
            std::string metricz = client.get("/v1/metricz").body;
            double reissued = perfbench::prometheusValue(
                metricz, "etc_lease_reissued_total");
            if (reissued > 0)
                gate_.fail("the coordinator re-issued " +
                           jsonNumber(reissued) + " leases");
            std::vector<store::CellKey> figureKeys;
            if (traced) {
                indexCheck(coordinatorStore, cells);
                for (const auto &name : FIGURES)
                    for (const auto &key :
                         bench::experimentCellKeys(experiment(name), opts_))
                        figureKeys.push_back(key);
                httpSum += perfbench::prometheusValue(
                    metricz, "etc_http_request_seconds_sum");
                httpCount += perfbench::prometheusValue(
                    metricz, "etc_http_request_seconds_count");
                leasesIssued += perfbench::prometheusValue(
                    metricz, "etc_lease_issued_total");
                leasesReissued += reissued;
            }
            stopFleet(fleet);
            // The archive read path over the quiescent coordinator store
            // (rebuild must not race a writer).
            if (traced)
                readProbe(coordinatorStore, figureKeys);
            fs::remove_all(dir);
            ++pass;
        },
        false);

    // The work happens in the children; all of them have been reaped.
    peakRssMb_ = peakRssMb(RUSAGE_CHILDREN);
    double tracedCount = std::max(1u, tracedIterations_);
    extraLayers_["service.submit_ms"] = tracedJobs ? submitMs / tracedJobs : 0;
    extraLayers_["service.polls_per_job"] = tracedJobs ? polls / tracedJobs : 0;
    extraLayers_["service.server_request_mean_us"] =
        httpCount ? httpSum / httpCount * US : 0;
    extraLayers_["service.leases_issued"] = leasesIssued / tracedCount;
    extraLayers_["service.lease_reissue_share"] =
        leasesIssued ? leasesReissued / leasesIssued : 0;
    extraLayers_["service.worker_busy_share"] =
        jobLatencyS ? busyS / (WORKERS * jobLatencyS) : 0;
    // The fleet's trials run in the work agents, not in this process.
    extraLayers_["fault.trials_simulated"] =
        double(trialsSimulated) / iterations_.size();
}

// ---- result -----------------------------------------------------------

void
Harness::emit()
{
    std::vector<double> untracedWall, tracedWall, trialsPerS, minstrPerS,
        opsPerS;
    uint64_t ops = 0;
    for (const auto &it : iterations_) {
        (it.traced ? tracedWall : untracedWall).push_back(it.wallS);
        if (it.traced)
            continue;
        ops += it.ops;
        trialsPerS.push_back(it.trials / it.wallS);
        minstrPerS.push_back(it.instructions / 1e6 / it.wallS);
        opsPerS.push_back(it.ops / it.wallS);
    }

    struct Metric
    {
        double value;
        std::string unit;
        const std::vector<double> *samples = nullptr;
    };
    std::map<std::string, Metric> e2e;
    const std::string &w = args_.workload;
    e2e["setup_s"] = {perfbench::median(setupS_), "s", &setupS_};
    e2e["wall_s"] = {perfbench::median(untracedWall), "s", &untracedWall};
    e2e["op_p50_ms"] = {perfbench::median(opMs_), "ms", &opMs_};
    e2e["peak_rss_mb"] = {peakRssMb_, "MB"};
    e2e["failed_ops_frac"] = {
        perfbench::failedFraction(gate_.failed(), gate_.attempted()),
        "ratio"};
    if (w != "archive-warm")
        e2e["trials_per_s"] = {perfbench::median(trialsPerS), "1/s"};
    if (w == "paper-cold" || w == "deep-cells")
        e2e["minstr_per_s"] = {perfbench::median(minstrPerS), "M/s"};
    if (w == "archive-warm") {
        e2e["read_p50_ms"] = {perfbench::median(opMs_), "ms", &opMs_};
        e2e["read_p90_ms"] = {perfbench::percentile(opMs_, 0.9), "ms"};
        e2e["reads_per_s"] = {perfbench::median(opsPerS), "1/s"};
    }
    if (w == "fleet")
        e2e["job_latency_p50_ms"] = {perfbench::median(opMs_), "ms",
                                     &opMs_};

    // Per-layer metrics (traced iterations; 0 where this workload
    // never calls the layer).
    std::map<std::string, double> value;
    for (const auto &[name, samples] : layer)
        value[name] = samples.mean();
    double tracedCount = std::max(1u, tracedIterations_);
    auto perIteration = [&](const char *counterName) {
        return counterDelta_[counterName] / tracedCount;
    };
    value["sim.golden_minstr_per_s"] =
        goldenS_ ? goldenInstr_ / goldenS_ / 1e6 : 0;
    if (campaignCpuS_) {
        value["sim.gang_share"] = gangUs_ / 1e6 / campaignCpuS_;
        value["sim.drain_share"] = drainUs_ / 1e6 / campaignCpuS_;
        value["fault.cores_busy"] = campaignCpuS_ / campaignWallS_;
    }
    if (double lanes = counterDelta_["etc_gang_lanes_total"])
        value["sim.gang_eviction_share"] =
            counterDelta_["etc_gang_lane_evictions_total"] / lanes;
    value["sim.checkpoint_restores"] =
        perIteration("etc_checkpoint_restores_total");
    value["fault.trials_simulated"] =
        perIteration("etc_trials_simulated_total");
    value["fault.trials_pruned"] = perIteration("etc_trials_pruned_total");
    const auto &cellMs = layer["fault.cell_ms"].values;
    value["fault.cell_p50_ms"] = perfbench::median(cellMs);
    value["fault.cell_p90_ms"] = perfbench::percentile(cellMs, 0.9);
    if (cellsMatched_)
        value["core.records_per_query"] =
            double(recordsLoaded_) / double(cellsMatched_);
    for (const auto &[name, metric] : extraLayers_)
        value[name] = metric;
    if (!tracedWall.empty())
        value["harness.trace_overhead_s"] =
            perfbench::median(tracedWall) - perfbench::median(untracedWall);

    for (const auto &[name, metric] : e2e)
        if (!perfbench::validMetricName(name))
            fatal("invalid metric name '", name, "'");
    for (const auto &[name, unit] : LAYER_METRICS)
        if (!perfbench::validMetricName(name))
            fatal("invalid metric name '", name, "'");

    std::string tracePath;
    if (args_.trace) {
        tracePath = args_.outDir + "/harness-trace.jsonl";
        if (!recorder.writeChromeTrace(tracePath))
            fatal("cannot write ", tracePath);
    }

    std::ostringstream out;
    out << "{\"workload\":" << store::jsonQuote(w)
        << ",\"seed\":" << args_.seed << ",\"trace\":" << args_.trace
        << ",\"correct\":" << (gate_.failed() ? "false" : "true")
        << ",\"attempted\":" << gate_.attempted()
        << ",\"failed\":" << gate_.failed()
        << ",\"ops\":" << ops << ",\"op\":" << store::jsonQuote(opName_)
        << ",\"iterations\":[";
    for (size_t i = 0; i < iterations_.size(); ++i)
        out << (i ? "," : "") << "{\"traced\":" << iterations_[i].traced
            << ",\"wall_s\":" << jsonNumber(iterations_[i].wallS)
            << ",\"cpu_s\":" << jsonNumber(iterations_[i].cpuS) << "}";
    out << "]";
    out << ",\"fingerprint\":{\"cores\":" << cores()
        << ",\"compiler\":" << store::jsonQuote(
#ifdef __clang__
                                   "clang " __VERSION__
#else
                                   "g++ " __VERSION__
#endif
                                   )
        << ",\"build_type\":" << store::jsonQuote(PERFBENCH_BUILD_TYPE)
        << ",\"build_flags\":" << store::jsonQuote(telemetry::buildFlags())
        << ",\"seed\":" << args_.seed << "}";
    out << ",\"e2e\":{";
    const char *sep = "";
    for (const auto &[name, metric] : e2e) {
        out << sep << store::jsonQuote(name) << ":{\"value\":"
            << jsonNumber(metric.value) << ",\"unit\":"
            << store::jsonQuote(metric.unit);
        if (metric.samples) {
            out << ",\"n\":" << metric.samples->size();
            if (auto tail = perfbench::tailPercentile(*metric.samples))
                out << ",\"tail\":{\"label\":" << store::jsonQuote(tail->label)
                    << ",\"value\":" << jsonNumber(tail->value) << "}";
        }
        out << "}";
        sep = ",";
    }
    out << "},\"layers\":{";
    sep = "";
    for (const auto &[name, unit] : LAYER_METRICS) {
        out << sep << store::jsonQuote(name) << ":{\"value\":"
            << jsonNumber(value[name]) << ",\"unit\":" << store::jsonQuote(unit)
            << "}";
        sep = ",";
    }
    out << "},\"self_time\":{";
    sep = "";
    for (const auto &[name, time] :
         perfbench::foldSelfTimes(recorder.spans())) {
        out << sep << store::jsonQuote(name) << ":{\"count\":" << time.count
            << ",\"total_ms\":" << jsonNumber(time.totalMs)
            << ",\"self_ms\":" << jsonNumber(time.selfMs) << "}";
        sep = ",";
    }
    out << "},\"figure_digests\":{";
    sep = "";
    for (const auto &[name, digest] : figureDigests_) {
        out << sep << store::jsonQuote(name) << ":"
            << store::jsonQuote(digest);
        sep = ",";
    }
    out << "},\"failures\":[";
    sep = "";
    for (const auto &failure : gate_.failures()) {
        out << sep << store::jsonQuote(failure);
        sep = ",";
    }
    out << "],\"trace_file\":" << store::jsonQuote(tracePath) << "}";
    std::cout << out.str() << std::endl;
}

int
Harness::run()
{
    fs::create_directories(args_.workDir);
    fs::create_directories(args_.outDir);
    if (args_.workload == "paper-cold")
        paperCold();
    else if (args_.workload == "deep-cells")
        deepCells();
    else if (args_.workload == "archive-warm")
        archiveWarm();
    else if (args_.workload == "fleet")
        fleet();
    else
        fatal("unknown workload '", args_.workload,
              "' (paper-cold, deep-cells, archive-warm, fleet)");
    emit();
    return 0;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            fatal("flag ", flag, " needs a value");
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value, nullptr, 0);
        else if (flag == "--seconds")
            args.seconds = static_cast<unsigned>(std::stoul(value));
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--etc-lab")
            args.etcLab = value;
        else if (flag == "--work-dir")
            args.workDir = value;
        else if (flag == "--out-dir")
            args.outDir = value;
        else if (flag == "--digests")
            args.digests = value;
        else if (flag == "--figure-dir")
            args.figureDir = value;
        else
            fatal("unknown flag ", flag);
    }
    if (args.workload.empty() || args.workDir.empty() ||
        args.outDir.empty())
        fatal("--workload, --work-dir and --out-dir are required");
    if (args.workload == "fleet" && args.etcLab.empty())
        fatal("the fleet workload needs --etc-lab");
    return args;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    try {
        Harness harness(parseArgs(argc, argv));
        return harness.run();
    } catch (const std::exception &e) {
        std::cerr << "perfbench_harness: " << e.what() << '\n';
        return 1;
    }
}
