#include "measure.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace perfbench {

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64)
        return false;
    auto alnum = [](char c) {
        return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
               (c >= '0' && c <= '9');
    };
    if (!alnum(name.front()))
        return false;
    for (char c : name)
        if (!alnum(c) && c != '_' && c != '.' && c != '-')
            return false;
    return true;
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

namespace {

/** 1-based nearest rank of percentile @p p over @p n samples. */
size_t
nearestRank(size_t n, double p)
{
    auto rank = static_cast<size_t>(std::ceil(p * double(n) - 1e-9));
    return std::clamp<size_t>(rank, 1, n);
}

} // namespace

double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    return samples[nearestRank(samples.size(), p) - 1];
}

std::optional<Tail>
tailPercentile(const std::vector<double> &samples)
{
    static const std::pair<double, const char *> LADDER[] = {
        {0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"},
        {0.90, "p90"},    {0.75, "p75"},
    };
    size_t n = samples.size();
    for (auto [p, label] : LADDER) {
        if (n == 0 || n - nearestRank(n, p) < 10)
            continue;
        return Tail{label, percentile(samples, p)};
    }
    return std::nullopt;
}

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now())
{}

uint64_t
SpanRecorder::nowUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

uint64_t
SpanRecorder::open(const std::string &name)
{
    if (!enabled_)
        return 0;
    Span span;
    span.id = ++nextId_;
    span.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    span.op = currentOp_;
    span.name = name;
    span.startUs = nowUs();
    stack_.push_back(spans_.size());
    spans_.push_back(std::move(span));
    return nextId_;
}

void
SpanRecorder::close(uint64_t id)
{
    if (id == 0 || stack_.empty() || spans_[stack_.back()].id != id)
        return;
    spans_[stack_.back()].endUs = nowUs();
    stack_.pop_back();
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    for (const auto &span : spans_) {
        std::string category = span.name.substr(0, span.name.find('.'));
        out << "{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << span.startUs
            << ",\"dur\":" << span.endUs - span.startUs
            << ",\"cat\":\"" << category << "\",\"name\":\"" << span.name
            << "\",\"args\":{\"id\":" << span.id
            << ",\"parent\":" << span.parent << ",\"op\":" << span.op
            << "}}\n";
    }
    return static_cast<bool>(out);
}

std::map<std::string, LayerTime>
foldSelfTimes(const std::vector<Span> &spans)
{
    std::map<uint64_t, std::vector<const Span *>> children;
    for (const auto &span : spans)
        if (span.parent)
            children[span.parent].push_back(&span);

    std::map<std::string, LayerTime> layers;
    for (const auto &span : spans) {
        uint64_t duration = span.endUs - span.startUs;
        // Union of the children's intervals, clipped to this span.
        std::vector<std::pair<uint64_t, uint64_t>> intervals;
        for (const Span *child : children[span.id]) {
            uint64_t lo = std::max(child->startUs, span.startUs);
            uint64_t hi = std::min(child->endUs, span.endUs);
            if (lo < hi)
                intervals.emplace_back(lo, hi);
        }
        std::sort(intervals.begin(), intervals.end());
        uint64_t covered = 0, reach = 0;
        for (auto [lo, hi] : intervals) {
            lo = std::max(lo, reach);
            if (hi > lo)
                covered += hi - lo;
            reach = std::max(reach, hi);
        }
        LayerTime &layer = layers[span.name];
        ++layer.count;
        layer.totalMs += duration / 1000.0;
        layer.selfMs += (duration - covered) / 1000.0;
    }
    return layers;
}

std::string
digestHex(const std::string &bytes)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (unsigned char c : bytes) {
        hash ^= c;
        hash *= 0x100000001b3ull;
    }
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

bool
OutputGate::check(const std::string &label, const std::string &bytes)
{
    ++attempted_;
    auto [it, first] = seen_.emplace(label, bytes);
    if (!first && it->second != bytes) {
        failures_.push_back(label + ": bytes differ from the first "
                                    "output of this run");
        return false;
    }
    auto pin = pinned_.find(label);
    if (pin != pinned_.end() && pin->second != digestHex(bytes)) {
        failures_.push_back(label + ": digest " + digestHex(bytes) +
                            " != recorded " + pin->second);
        return false;
    }
    return true;
}

bool
OutputGate::expectSame(const std::string &what,
                       const std::string &expected,
                       const std::string &actual)
{
    ++attempted_;
    if (expected == actual)
        return true;
    failures_.push_back(what + ": bytes differ");
    return false;
}

void
OutputGate::fail(const std::string &message)
{
    ++attempted_;
    failures_.push_back(message);
}

double
failedFraction(uint64_t failed, uint64_t attempted)
{
    return attempted ? double(failed) / double(attempted) : 0.0;
}

double
prometheusValue(const std::string &text, const std::string &name)
{
    double total = 0;
    std::istringstream lines(text);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.size() <= name.size() || line.compare(0, name.size(), name))
            continue;
        char next = line[name.size()];
        if (next != ' ' && next != '{')
            continue;
        size_t space = line.rfind(' ');
        total += std::strtod(line.c_str() + space + 1, nullptr);
    }
    return total;
}

} // namespace perfbench
