/// \file trace.cpp
/// \brief Span tracer, trace checks, timing summaries and the metric sink.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "bench.h"

namespace perfbench {

double now_s() {
    static const auto epoch = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}

namespace {

std::uint32_t thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

thread_local std::vector<std::uint32_t> open_stack;

} // namespace

Tracer& tracer() {
    static Tracer instance;
    return instance;
}

std::uint32_t Tracer::open(const char* name) {
    SpanRecord record;
    record.parent = open_stack.empty() ? 0 : open_stack.back();
    record.thread = thread_index();
    record.name = name;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        record.id = static_cast<std::uint32_t>(spans_.size() + 1);
        record.start_s = now_s();
        spans_.push_back(record);
    }
    open_stack.push_back(record.id);
    return record.id;
}

void Tracer::close(std::uint32_t id) {
    const double end = now_s();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        SpanRecord& record = spans_[id - 1];
        record.duration_s = end - record.start_s;
    }
    if (!open_stack.empty() && open_stack.back() == id) open_stack.pop_back();
}

std::vector<SpanRecord> Tracer::spans() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

const SpanStats& TraceSummary::of(const std::string& name) const {
    static const SpanStats none;
    const auto it = by_name.find(name);
    return it == by_name.end() ? none : it->second;
}

TraceSummary summarize(const std::vector<SpanRecord>& spans) {
    TraceSummary summary;
    summary.spans = spans.size();
    // A child may end at most this much after its parent (clock reads are
    // taken outside the store lock, so equal instants can reorder by ~ns).
    constexpr double kSlack = 1e-7;
    std::vector<double> child_sum(spans.size(), 0.0);
    const auto violation = [&](const SpanRecord& span, const std::string& what) {
        if (summary.violations.size() < 16) {
            summary.violations.push_back(std::string(span.name) + "#" +
                                         std::to_string(span.id) + ": " + what);
        }
    };
    for (const SpanRecord& span : spans) {
        if (span.duration_s < 0.0) {
            violation(span, "negative or open duration");
            continue;
        }
        if (span.parent == 0) continue;
        if (span.parent >= span.id) {
            violation(span, "parent opened after child");
            continue;
        }
        const SpanRecord& parent = spans[span.parent - 1];
        if (parent.thread != span.thread) violation(span, "parent on another thread");
        if (span.start_s + kSlack < parent.start_s ||
            span.start_s + span.duration_s > parent.start_s + parent.duration_s + kSlack) {
            violation(span, "not nested inside its parent");
        }
        child_sum[span.parent - 1] += span.duration_s;
    }
    for (const SpanRecord& span : spans) {
        if (span.duration_s < 0.0) continue;
        const double children = child_sum[span.id - 1];
        if (children > span.duration_s + kSlack) violation(span, "children exceed parent");
        SpanStats& stats = summary.by_name[span.name];
        ++stats.count;
        stats.total_s += span.duration_s;
        const double self = std::max(0.0, span.duration_s - children);
        stats.self_s += self;
        if (span.parent == 0) summary.root_s += span.duration_s;
    }
    return summary;
}

void write_trace(const std::string& path, const std::vector<SpanRecord>& spans) {
    std::ofstream out(path);
    char line[256];
    for (const SpanRecord& span : spans) {
        std::snprintf(line, sizeof line,
                      "{\"id\":%u,\"parent\":%u,\"thread\":%u,\"name\":\"%s\","
                      "\"start_s\":%.9f,\"duration_s\":%.9f}\n",
                      span.id, span.parent, span.thread, span.name, span.start_s,
                      span.duration_s);
        out << line;
    }
}

// --- statistics ---------------------------------------------------------------

double Samples::sum() const {
    double total = 0.0;
    for (const double v : values) total += v;
    return total;
}

double Samples::mean() const { return values.empty() ? 0.0 : sum() / static_cast<double>(values.size()); }

double Samples::quantile(double q) const {
    if (values.empty()) return 0.0;
    std::vector<double> sorted = values;
    std::sort(sorted.begin(), sorted.end());
    const double pos = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (pos - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

std::pair<double, double> Samples::tail() const {
    static const double kPercentiles[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
    const auto n = static_cast<double>(values.size());
    for (const double p : kPercentiles) {
        if (n - std::ceil(p / 100.0 * n) >= 10.0) return {p, quantile(p / 100.0)};
    }
    return {0.0, 0.0};
}

Samples Samples::slice(std::size_t s, std::size_t count) const {
    const std::size_t n = values.size();
    Samples out;
    out.values.assign(values.begin() + static_cast<std::ptrdiff_t>(s * n / count),
                      values.begin() + static_cast<std::ptrdiff_t>((s + 1) * n / count));
    return out;
}

double Samples::quiet_median() const {
    const std::size_t count = std::min(kSlices, values.size());
    double best = median();
    for (std::size_t s = 0; s < count; ++s) best = std::min(best, slice(s, count).median());
    return best;
}

double PassRate::slice_rate(std::size_t s, std::size_t count) const {
    double total_work = 0.0, total_s = 0.0;
    for (const auto& [input, samples] : seconds) {
        total_work += work.at(input);
        total_s += samples.slice(s, count).median();
    }
    return total_s > 0.0 ? total_work / total_s : 0.0;
}

std::size_t PassRate::slice_count() const {
    std::size_t fewest = kSlices;
    for (const auto& entry : seconds) fewest = std::min(fewest, entry.second.size());
    return fewest;
}

double PassRate::quiet_rate() const {
    double best = 0.0;
    const std::size_t count = slice_count();
    for (std::size_t s = 0; s < count; ++s) best = std::max(best, slice_rate(s, count));
    return best;
}

double PassRate::quiet_median() const {
    const std::size_t count = slice_count();
    double best = count > 0 ? std::numeric_limits<double>::infinity() : 0.0;
    for (std::size_t s = 0; s < count; ++s) {
        Samples pooled_slice;
        for (const auto& entry : seconds) {
            const Samples part = entry.second.slice(s, count);
            pooled_slice.values.insert(pooled_slice.values.end(), part.values.begin(),
                                       part.values.end());
        }
        best = std::min(best, pooled_slice.median());
    }
    return best;
}

Samples PassRate::pooled() const {
    Samples all;
    for (const auto& entry : seconds) {
        all.values.insert(all.values.end(), entry.second.values.begin(),
                          entry.second.values.end());
    }
    return all;
}

// --- report -------------------------------------------------------------------

void Report::set(const std::string& name, double value, const std::string& unit) {
    for (auto& [existing, metric] : metrics_) {
        if (existing == name) {
            metric = {value, unit};
            return;
        }
    }
    metrics_.emplace_back(name, Metric{value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

void Report::timing(const std::string& name, const Samples& samples) {
    char line[256];
    const auto [p, tail] = samples.tail();
    if (p > 0.0) {
        std::snprintf(line, sizeof line, "%-28s p50 %.6g s, p%g %.6g s (n=%zu)",
                      name.c_str(), samples.median(), p, tail, samples.size());
    } else {
        std::snprintf(line, sizeof line,
                      "%-28s p50 %.6g s (n=%zu; too few samples for a tail)",
                      name.c_str(), samples.median(), samples.size());
    }
    note(line);
}

void Tally::fail(const std::string& what) {
    ++attempted;
    ++failed;
    const std::lock_guard<std::mutex> lock(mutex);
    if (failures.size() < 20) failures.push_back(what);
}

bool close_rel(double a, double b, double rel) {
    return std::fabs(a - b) <= rel * std::max(std::fabs(a), std::fabs(b));
}

} // namespace perfbench
