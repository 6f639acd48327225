/// \file bench.h
/// \brief Shared pieces of the benchmark: the in-memory span tracer,
///        timing summaries, the metric sink, the seeded input generator, and
///        the workload interface the four workloads implement.
///
/// The benchmark talks to the library only through its public API.  Spans are
/// recorded here, around the calls into each layer, never inside `src/`.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
[[nodiscard]] double now_s();

// --- tracing ------------------------------------------------------------------

/// One closed span.  Ids start at 1; parent 0 marks a root span.  Spans of
/// one thread nest strictly (the tracer keeps a per-thread stack).
struct SpanRecord {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;
    std::uint32_t thread = 0;
    const char* name = "";
    double start_s = 0.0;
    double duration_s = -1.0; ///< stays negative while the span is open
};

/// Process-wide span store.  Disabled by default: a disabled tracer makes
/// `Span` a no-op apart from one relaxed load.
class Tracer {
public:
    void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
    [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

    /// Open a span on the calling thread; returns its id.
    std::uint32_t open(const char* name);
    /// Close the innermost open span of the calling thread (must be \p id).
    void close(std::uint32_t id);

    [[nodiscard]] std::vector<SpanRecord> spans() const;

private:
    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_;
    std::vector<SpanRecord> spans_;
};

[[nodiscard]] Tracer& tracer();

/// RAII span; records nothing while the tracer is disabled.
class Span {
public:
    explicit Span(const char* name)
        : id_(tracer().enabled() ? tracer().open(name) : 0) {}
    ~Span() {
        if (id_ != 0) tracer().close(id_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

private:
    std::uint32_t id_;
};

/// Per-name aggregate of a trace.
struct SpanStats {
    std::size_t count = 0;
    double total_s = 0.0; ///< summed durations
    double self_s = 0.0;  ///< summed durations minus their children's
};

/// What the trace checks and aggregation produce.
struct TraceSummary {
    std::map<std::string, SpanStats> by_name;
    std::size_t spans = 0;
    double root_s = 0.0; ///< summed root-span durations
    std::vector<std::string> violations; ///< well-formedness failures

    [[nodiscard]] const SpanStats& of(const std::string& name) const;
};

/// Check nesting / durations and aggregate per span name.
[[nodiscard]] TraceSummary summarize(const std::vector<SpanRecord>& spans);

/// Write the spans as JSON lines (name, id, parent, thread, start, duration).
void write_trace(const std::string& path, const std::vector<SpanRecord>& spans);

// --- statistics ---------------------------------------------------------------

/// A sample set of one timing.
struct Samples {
    std::vector<double> values;

    void add(double v) { values.push_back(v); }
    [[nodiscard]] std::size_t size() const { return values.size(); }
    [[nodiscard]] double sum() const;
    [[nodiscard]] double mean() const;
    /// Linear-interpolated quantile, q in [0, 1].
    [[nodiscard]] double quantile(double q) const;
    [[nodiscard]] double median() const { return quantile(0.5); }
    /// The highest of p50/p75/p90/p95/p99/p99.9 that still has at least ten
    /// samples above it, as (percentile, value); (0, 0) with < 20 samples.
    [[nodiscard]] std::pair<double, double> tail() const;
    /// Slice \p s of \p count equal slices, in the order the samples came.
    [[nodiscard]] Samples slice(std::size_t s, std::size_t count) const;
    /// The median of the quietest slice: the lowest of the slice medians.
    [[nodiscard]] double quiet_median() const;
};

/// The shared box slows whole stretches of a run, by up to 60% for minutes
/// at a time, and interference only ever slows code down.  So each
/// end-to-end timing is taken over the run's quietest slice: the samples are
/// cut, in time order, into this many equal slices, and the best slice is
/// reported.
inline constexpr std::size_t kSlices = 6;

/// Throughput over passes of mixed inputs: the work of one pass over every
/// input divided by the sum of each input's median time, in the quietest
/// slice of the run.
struct PassRate {
    std::map<std::string, Samples> seconds;
    std::map<std::string, double> work; ///< per input, per sample

    void add(const std::string& input, double input_work, double input_seconds) {
        work[input] = input_work;
        seconds[input].add(input_seconds);
    }
    /// The rate over samples [s/count, (s+1)/count) of every input.
    [[nodiscard]] double slice_rate(std::size_t s, std::size_t count) const;
    /// The highest slice rate.
    [[nodiscard]] double quiet_rate() const;
    /// The lowest slice median of all inputs' samples pooled (each slice
    /// holds the same share of every input, so the median is well placed).
    [[nodiscard]] double quiet_median() const;
    /// Every sample of every input.
    [[nodiscard]] Samples pooled() const;

private:
    [[nodiscard]] std::size_t slice_count() const;
};

// --- metrics ------------------------------------------------------------------

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Metrics of one run, in insertion order, plus the human-readable lines
/// printed before the final JSON object.
class Report {
public:
    void set(const std::string& name, double value, const std::string& unit);
    /// Human-readable line only (workload-specific names, sample counts,
    /// tails).
    void note(const std::string& line);
    /// A timing line: median and tail with the sample count.
    void timing(const std::string& name, const Samples& samples);

    [[nodiscard]] const std::vector<std::pair<std::string, Metric>>& metrics() const {
        return metrics_;
    }
    [[nodiscard]] const std::vector<std::string>& notes() const { return notes_; }

private:
    std::vector<std::pair<std::string, Metric>> metrics_;
    std::vector<std::string> notes_;
};

// --- correctness --------------------------------------------------------------

/// Operation tally: every attempted operation, and every one that failed,
/// was refused, or produced an output the oracle rejected.
struct Tally {
    std::atomic<std::size_t> attempted{0};
    std::atomic<std::size_t> failed{0};
    std::mutex mutex;
    std::vector<std::string> failures; ///< first few messages

    void ok() { ++attempted; }
    void fail(const std::string& what);
    /// Count one operation; fail it when \p good is false.
    void check(bool good, const std::string& what) {
        if (good) ok(); else fail(what);
    }
};

/// max(1, round(per_second * seconds)): iteration counts of traced runs.
[[nodiscard]] inline std::size_t scaled_count(double per_second, double seconds) {
    const double count = per_second * seconds + 0.5;
    return count < 1.0 ? 1 : static_cast<std::size_t>(count);
}

/// |a - b| <= rel * max(|a|, |b|).
[[nodiscard]] bool close_rel(double a, double b, double rel = 1e-9);

// --- seeded inputs -------------------------------------------------------------

/// The workload's input generator.  The seed permutes orders and draws the
/// request mix and parameter patches from fixed distributions.
class Inputs {
public:
    explicit Inputs(std::uint64_t seed) : rng_(seed * 0x9E3779B97F4A7C15ULL + 17) {}

    [[nodiscard]] std::size_t index(std::size_t n) { return rng_() % n; }
    template <class T>
    void shuffle(std::vector<T>& items) {
        for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[index(i)]);
    }
    template <class T>
    [[nodiscard]] const T& pick(const std::vector<T>& items) {
        return items[index(items.size())];
    }

private:
    std::mt19937_64 rng_;
};

// --- workloads ----------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";   ///< scratch files (fixtures, trace dump)
    std::string expected;        ///< recorded oracle values
    unsigned nproc = 1;
};

class Expected;     // oracle.h
struct LayerInputs; // layers.h

/// Everything a workload reports.  Iterations are the workload's own unit
/// (a cold pass over all inputs, an explore step, a request, a map pass).
class Workload {
public:
    virtual ~Workload() = default;

    /// Build the workload's state from scratch (fixtures, warm caches,
    /// servers).  Runs several times; the last state is the one measured.
    virtual void setup() = 0;
    /// Tear down what setup built (servers, threads); idempotent.
    virtual void teardown() {}
    /// Untraced end-to-end measurement for about \p seconds.
    virtual void measure(double seconds) = 0;
    /// End-to-end metrics of the last measure().
    virtual void end_to_end(Report& report) = 0;

    /// Iterations the traced run and its untraced twin each perform: a
    /// fixed count per second of run, so that per-layer totals compare
    /// across runs of the same length and the pair lasts about \p seconds.
    [[nodiscard]] virtual std::size_t trace_iterations(double seconds) const = 0;
    /// Untraced work the per-layer metrics need besides the iterations
    /// (serve_mixed: its open-loop phase).
    virtual void prepare_trace(double /*seconds*/) {}
    /// Run iterations [0, n) of the seeded sequence (traced or not, as the
    /// tracer is); returns the wall time.
    virtual double run_iterations(std::size_t iterations) = 0;
    /// Add the layers' own counters (cache, service, mapper, optimizer
    /// statistics) gathered while running.
    virtual void layer_inputs(LayerInputs& inputs) = 0;

    /// Check every captured output against the oracle (run after measuring).
    virtual void verify() = 0;
};

struct Context {
    Options options;
    const Expected* expected = nullptr;
    Tally* tally = nullptr;
};

[[nodiscard]] std::unique_ptr<Workload> make_cold_front(Context& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_explore_warm(Context& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_serve_mixed(Context& ctx);
[[nodiscard]] std::unique_ptr<Workload> make_map_place(Context& ctx);

} // namespace perfbench
