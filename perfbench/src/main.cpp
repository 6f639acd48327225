/// \file main.cpp
/// \brief The benchmark binary's entry point.
///
///   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///             [--workdir <dir>] [--expected <expected.json>]
///   perfbench --record <expected.json>
///
/// With --trace 0 it sets the workload up several times (setup_s is the
/// median), measures it untraced for --seconds, checks every output, runs
/// the shared oracle, and prints the end-to-end metrics.  With --trace 1 it
/// runs a fixed number of iterations untraced and then the same iterations
/// traced, checks the spans, and prints the per-layer metrics.  Either way
/// the last stdout line is one JSON object: correct, attempted, failed,
/// metrics.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "layers.h"
#include "oracle.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 9;

unsigned available_cpus() {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
    const long online = sysconf(_SC_NPROCESSORS_ONLN);
    return online > 0 ? static_cast<unsigned>(online) : 1u;
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB on Linux
}

std::uint64_t spin(std::uint64_t iterations, std::uint64_t state) {
    for (std::uint64_t i = 0; i < iterations; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        state ^= state >> 29;
    }
    return state;
}

/// N threads of fixed spin work against one: N * t1 / tN.  Calibrated so
/// one thread spins about 40 ms; the median of three trials.
double effective_parallelism(unsigned threads) {
    std::uint64_t iterations = 1u << 20;
    for (;;) {
        const double start = now_s();
        volatile std::uint64_t sink = spin(iterations, 1);
        (void)sink;
        if (now_s() - start > 0.04 || iterations > (1ull << 40)) break;
        iterations *= 2;
    }
    Samples trials;
    for (int trial = 0; trial < 3; ++trial) {
        double start = now_s();
        volatile std::uint64_t sink = spin(iterations, 3);
        const double one = now_s() - start;
        std::vector<std::thread> pool;
        std::vector<std::uint64_t> out(threads);
        start = now_s();
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] { out[t] = spin(iterations, t + 5); });
        }
        for (auto& thread : pool) thread.join();
        const double many = now_s() - start;
        sink = out[0];
        (void)sink;
        trials.add(static_cast<double>(threads) * one / many);
    }
    return trials.median();
}

[[noreturn]] void usage(const char* why) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <cold_front|explore_warm|"
                 "serve_mixed|map_place> --seed <n> --seconds <s> --trace <0|1> "
                 "[--workdir <dir>] [--expected <file>]\n       perfbench --record <file>\n",
                 why);
    std::exit(2);
}

Options parse(int argc, char** argv, std::string& record) {
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") options.workload = value;
        else if (flag == "--seed") options.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds") options.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace") options.trace = value == "1";
        else if (flag == "--workdir") options.workdir = value;
        else if (flag == "--expected") options.expected = value;
        else if (flag == "--record") record = value;
        else usage(("unknown flag " + flag).c_str());
    }
    return options;
}

std::unique_ptr<Workload> make_workload(Context& ctx) {
    const std::string& name = ctx.options.workload;
    if (name == "cold_front") return make_cold_front(ctx);
    if (name == "explore_warm") return make_explore_warm(ctx);
    if (name == "serve_mixed") return make_serve_mixed(ctx);
    if (name == "map_place") return make_map_place(ctx);
    usage(("unknown workload '" + name + "'").c_str());
}

void print_result(const Report& report, const Tally& tally, bool correct) {
    for (const std::string& line : report.notes()) std::printf("  %s\n", line.c_str());
    for (const auto& [name, metric] : report.metrics()) {
        std::printf("  %-32s %.10g %s\n", name.c_str(), metric.value, metric.unit.c_str());
    }
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(tally.attempted.load());
    json += ", \"failed\": " + std::to_string(tally.failed.load());
    json += ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : report.metrics()) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", metric.value);
        json += (first ? "\"" : ", \"") + name + "\": {\"value\": " + value + ", \"unit\": \"" +
                metric.unit + "\"}";
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

/// Layer self time: every span that is not a run root or the benchmark's
/// own bookkeeping.
double layer_self_s(const TraceSummary& trace) {
    double total = 0.0;
    for (const auto& [name, stats] : trace.by_name) {
        if (name.rfind("run.", 0) == 0 || name.rfind("bench.", 0) == 0) continue;
        total += stats.self_s;
    }
    return total;
}

int run(Options options) {
    // Keep freed memory in the process.  With glibc's defaults, large blocks
    // are mmap'd and unmapped on free, so every cold request pays for fresh
    // page faults, whose cost on a shared VM host moved whole runs by tens
    // of percent.  The benchmark measures the library, not the host's
    // page-fault path.
    mallopt(M_MMAP_MAX, 0);
    mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());
    options.nproc = available_cpus();
    const Expected expected = Expected::load(options.expected);
    Tally tally;
    Context ctx{options, &expected, &tally};
    std::unique_ptr<Workload> workload = make_workload(ctx);

    const double parallelism = effective_parallelism(options.nproc);
    std::printf("# perfbench %s seed=%llu seconds=%g trace=%d nproc=%u "
                "effective_parallelism=%.3f\n",
                options.workload.c_str(), static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.nproc, parallelism);

    Report report;
    if (!options.trace) {
        Samples setups;
        for (int k = 0; k < kSetupRepeats; ++k) {
            workload->teardown();
            const double start = now_s();
            workload->setup();
            setups.add(now_s() - start);
        }
        workload->measure(options.seconds);
        workload->teardown();
        workload->verify();
        LayerInputs unused;
        const double oracle_error_pct =
            run_common_oracle(expected, tally, options.workdir, unused);
        // The oracle's error figure, unless the workload maps circuits itself.
        report.set("estimate_error_pct", oracle_error_pct, "%");
        workload->end_to_end(report);
        report.set("setup_s", setups.median(), "s");
        report.set("peak_rss_mb", peak_rss_mb(), "MB");
        report.timing("setup_s", setups);
        report.note("effective_parallelism " + std::to_string(parallelism) + " on nproc " +
                    std::to_string(options.nproc));
    } else {
        workload->setup();
        const std::size_t iterations = workload->trace_iterations(options.seconds);
        workload->prepare_trace(options.seconds);
        const double untraced_s = workload->run_iterations(iterations);

        tracer().set_enabled(true);
        workload->teardown();
        {
            const Span root("run.setup");
            workload->setup();
        }
        const double traced_s = workload->run_iterations(iterations);
        LayerInputs inputs;
        (void)run_common_oracle(expected, tally, options.workdir, inputs);
        {
            const Span root("run.verify");
            workload->verify();
        }
        tracer().set_enabled(false);
        workload->teardown();

        const std::vector<SpanRecord> spans = tracer().spans();
        const TraceSummary trace = summarize(spans);
        write_trace(options.workdir + "/trace-" + options.workload + ".jsonl", spans);
        for (const std::string& violation : trace.violations) {
            tally.fail("malformed span: " + violation);
        }
        workload->layer_inputs(inputs);
        report_layers(report, trace, inputs);
        const double attributed = layer_self_s(trace);
        report.set("trace.overhead_ratio", traced_s / untraced_s, "ratio");
        report.set("trace.layer_coverage", trace.root_s > 0 ? attributed / trace.root_s : 0.0,
                   "ratio");
        report.set("trace.unattributed_s", trace.root_s - attributed, "s");
        report.set("trace.spans", static_cast<double>(trace.spans), "count");
        report.set("effective_parallelism", parallelism, "ratio");
        report.set("nproc", static_cast<double>(options.nproc), "count");
        char line[160];
        std::snprintf(line, sizeof line,
                      "trace: %zu spans, %zu malformed, root time %.4f s, unattributed %.4f s "
                      "(%.1f%%), %zu iterations",
                      trace.spans, trace.violations.size(), trace.root_s,
                      trace.root_s - attributed,
                      trace.root_s > 0 ? 100.0 * (trace.root_s - attributed) / trace.root_s : 0.0,
                      iterations);
        report.note(line);
    }

    for (const std::string& failure : tally.failures) {
        std::printf("  FAILED: %s\n", failure.c_str());
    }
    const bool correct = tally.failed.load() == 0 && tally.attempted.load() > 0;
    print_result(report, tally, correct);
    return correct ? 0 : 1;
}

} // namespace
} // namespace perfbench

int main(int argc, char** argv) {
    std::string record;
    perfbench::Options options = perfbench::parse(argc, argv, record);
    try {
        if (!record.empty()) {
            perfbench::record_expected(record);
            return 0;
        }
        if (options.workload.empty()) perfbench::usage("--workload is required");
        if (options.expected.empty()) perfbench::usage("--expected is required");
        return perfbench::run(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }
}
