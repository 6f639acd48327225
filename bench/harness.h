/// \file harness.h
/// \brief Shared machinery for the paper-reproduction bench binaries.
///
/// Methodology (matches the paper §4):
///   - QSPR (our re-implementation, congestion-aware maze routing) produces
///     the "actual" latency of each benchmark;
///   - LEQA's speed parameter v is calibrated once on the three smallest
///     benchmarks against that mapper (the paper's stated use of v as the
///     mapper-tuning knob) and then frozen;
///   - both tools run on the identical FT netlist through one
///     leqa::pipeline::Pipeline session; per-stage wall times come from the
///     pipeline (LEQA runtime = graph build + estimate, QSPR runtime = the
///     map stage; each end-to-end runtime adds the shared front end --
///     netlist generation or parsing plus FT synthesis, the resolve stage).
///     run_suite clears the session cache first so every row
///     pays the full graph-build cost -- the timing methodology must be
///     uniform across rows for the Table 3 speedup column, even though a
///     production sweep would happily keep the calibration-warmed entries.
///
/// Environment knobs:
///   LEQA_BENCH_FAST=1   skip benchmarks above 80k FT ops (quick CI runs)
///   LEQA_BENCH_LIMIT=N  custom op-count cap
#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "benchgen/suite.h"
#include "core/calibrate.h"
#include "pipeline/pipeline.h"
#include "util/env.h"

namespace leqa::bench {

/// One evaluated suite row (ours + the paper's published values).
struct SuiteRow {
    benchgen::PaperBenchmark spec;
    std::size_t qubits = 0;
    std::size_t ops = 0;
    double actual_s = 0.0;
    double estimated_s = 0.0;
    double error_pct = 0.0;
    double qspr_runtime_s = 0.0;  ///< map stage
    double leqa_runtime_s = 0.0;  ///< graph build + estimate
    double speedup = 0.0;         ///< qspr_runtime_s / leqa_runtime_s
    double front_end_s = 0.0;     ///< resolve stage, paid by both tools
    double qspr_total_s = 0.0;    ///< front end + map
    double leqa_total_s = 0.0;    ///< front end + graph build + estimate
    double total_speedup = 0.0;   ///< qspr_total_s / leqa_total_s
};

/// Op-count cap from the environment (0 = no cap).
inline std::size_t bench_op_limit() {
    if (util::env_flag("LEQA_BENCH_FAST")) return 80000;
    return static_cast<std::size_t>(util::env_int("LEQA_BENCH_LIMIT", 0));
}

/// A pipeline session for suite evaluation.  The cache bound is kept small:
/// the suite's large benchmarks are visited once each, and bounding the
/// cache keeps peak memory near the seed's one-circuit-at-a-time level.
inline pipeline::Pipeline make_suite_pipeline(const fabric::PhysicalParams& params,
                                              const qspr::QsprOptions& qspr_options = {},
                                              const core::LeqaOptions& leqa_options = {}) {
    pipeline::PipelineConfig config;
    config.params = params;
    config.qspr = qspr_options;
    config.leqa = leqa_options;
    config.max_cached_circuits = 4;
    return pipeline::Pipeline(config);
}

/// The paper's three smallest suite benchmarks (the calibration set).
inline std::vector<pipeline::CircuitSource> training_sources() {
    return {pipeline::CircuitSource::from_bench("8bitadder"),
            pipeline::CircuitSource::from_bench("gf2^16mult"),
            pipeline::CircuitSource::from_bench("hwb15ps")};
}

/// Calibrate v on the three smallest suite benchmarks against the session's
/// mapper (and leave those circuits warm in the session cache).
inline core::CalibrationResult calibrate_on_smallest(pipeline::Pipeline& pipe) {
    return pipe.calibrate(training_sources());
}

/// Evaluate the full suite through the session: QSPR actual + LEQA estimate
/// + per-stage wall times.  Starts from a cold cache so the runtime columns
/// are methodologically uniform across rows (see the header comment).
inline std::vector<SuiteRow> run_suite(pipeline::Pipeline& pipe, bool verbose = true) {
    pipe.clear_cache();
    const std::size_t limit = bench_op_limit();
    std::vector<SuiteRow> rows;
    for (const auto& spec : benchgen::paper_suite()) {
        if (limit > 0 && spec.paper_ops > limit) {
            if (verbose) {
                std::fprintf(stderr, "[bench] skipping %s (%zu ops > limit %zu)\n",
                             spec.name.c_str(), spec.paper_ops, limit);
            }
            continue;
        }
        pipeline::EstimationRequest request(
            pipeline::CircuitSource::from_bench(spec.name), pipeline::RunMode::Both);
        const pipeline::EstimationResult result = pipe.run(request);

        SuiteRow row;
        row.spec = spec;
        row.qubits = result.circuit.qubits;
        row.ops = result.circuit.ft_ops;
        row.actual_s = result.mapping->latency_us * 1e-6;
        row.estimated_s = result.estimate->latency_seconds();
        row.qspr_runtime_s = result.times.map_s;
        row.leqa_runtime_s = result.times.graphs_s + result.times.estimate_s;
        row.front_end_s = result.times.resolve_s;
        row.qspr_total_s = row.front_end_s + row.qspr_runtime_s;
        row.leqa_total_s = row.front_end_s + row.leqa_runtime_s;
        row.error_pct = 100.0 * std::abs(row.estimated_s - row.actual_s) / row.actual_s;
        row.speedup =
            row.leqa_runtime_s > 0.0 ? row.qspr_runtime_s / row.leqa_runtime_s : 0.0;
        row.total_speedup =
            row.leqa_total_s > 0.0 ? row.qspr_total_s / row.leqa_total_s : 0.0;
        if (verbose) {
            std::fprintf(stderr, "[bench] %-18s actual %.3E s, estimate %.3E s (%.2f%%), "
                                 "qspr %.3fs, leqa %.4fs, front end %.4fs\n",
                         spec.name.c_str(), row.actual_s, row.estimated_s, row.error_pct,
                         row.qspr_runtime_s, row.leqa_runtime_s, row.front_end_s);
        }
        rows.push_back(row);
    }
    return rows;
}

} // namespace leqa::bench
