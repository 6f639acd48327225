/// \file layers.h
/// \brief The benchmark's fixed inputs and its layer-by-layer decomposition
///        of a pipeline run, used by the traced run.
///
/// The untraced run drives `pipeline::Pipeline`, which hides its stages.
/// The traced run performs the same work by calling each layer's public
/// function in the order the pipeline does (load or generate, synthesize,
/// build QODG and IIG, build the profile, estimate, map), each inside a span
/// named `<layer>.<call>`.  A few spans are *probes*: they re-invoke a layer
/// function with the inputs the enclosing call used (coverage histogram,
/// E[S_q] surfaces, longest path, census), because that call happens inside
/// the engine where the benchmark cannot see it.  Probe work is extra, and
/// shows up in trace.overhead_ratio.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "circuit/circuit.h"
#include "core/engine.h"
#include "core/explore.h"
#include "core/leqa.h"
#include "core/optimize.h"
#include "fabric/params.h"
#include "iig/iig.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "qspr/qspr.h"
#include "service/service.h"

namespace perfbench {

// --- fixed inputs ----------------------------------------------------------------

/// cold_front: generator-path circuits, plus the circuit written to the
/// pre-FT and FT .qasm fixtures.
inline const std::vector<std::string> kColdBenches = {"gf2^256mult", "gf2^128mult", "gf2^64mult",
                                                      "hwb200ps", "mod1048576adder"};
inline const std::string kColdQasmCircuit = "gf2^128mult";

/// explore_warm: circuits and the 3 x 8 x 4 x 8 = 768-point grid.
inline const std::vector<std::string> kExploreCircuits = {"gf2^64mult", "hwb100ps",
                                                          "gf2^128mult"};
[[nodiscard]] leqa::core::ExplorationSpec explore_spec();
/// The single-axis sweep run next to each exploration (speed axis).
inline const std::vector<double> kSweepSpeeds = {0.0005, 0.001, 0.002, 0.004,
                                                 0.006,  0.008, 0.012, 0.016};

/// map_place: RunMode::Both circuits, and the greedy-optimize inputs.
inline const std::vector<std::string> kMapCircuits = {"ham3", "8bitadder", "gf2^16mult", "hwb15ps",
                                                      "ham15",     "gf2^50mult", "hwb50ps"};
inline const std::vector<std::string> kOptimizeCircuits = {"hwb15ps", "gf2^16mult"};
inline constexpr std::size_t kOptimizeMoves = 4000;
inline constexpr std::uint64_t kOptimizeSeeds = 8; ///< seeds 1..8 are recorded

/// The shared oracle every workload ends with (small, touches every layer).
inline const std::string kOracleCircuit = "gf2^16mult";
inline const std::vector<std::string> kOracleMapCircuits = {"8bitadder", "gf2^16mult"};
inline const std::string kOracleOptimizeCircuit = "8bitadder";
inline constexpr std::size_t kOracleOptimizeMoves = 2000;

/// Greedy optimize options for one (seed, budget).
[[nodiscard]] leqa::core::OptimizeOptions optimize_options(std::uint64_t seed,
                                                           std::size_t moves);
/// Key of a recorded optimize result.
[[nodiscard]] std::string optimize_key(const std::string& circuit, std::uint64_t seed,
                                       std::size_t moves);

// --- layer-by-layer front end ------------------------------------------------------

/// Where a circuit comes from in the traced decomposition.
struct CircuitInput {
    enum class Kind { Bench, Qasm, FtQasm };
    Kind kind = Kind::Bench;
    std::string name; ///< suite name (the bench, or the circuit a fixture holds)
    std::string path; ///< fixture path for Qasm / FtQasm

    [[nodiscard]] leqa::pipeline::CircuitSource source() const;
    [[nodiscard]] std::string label() const;
};

/// Front-end artifacts of one circuit built layer by layer, with the
/// work counts the per-layer rates divide by.
struct FrontEnd {
    std::unique_ptr<leqa::circuit::Circuit> ft;
    std::unique_ptr<leqa::qodg::Qodg> qodg;
    std::unique_ptr<leqa::iig::Iig> iig;
    leqa::core::CircuitProfile profile;
};

/// Work counters of the traced layers (summed over a traced run).
struct LayerCounts {
    double parser_bytes = 0, parser_gates = 0;
    double benchgen_gates = 0;
    double synth_ft_ops = 0;
    double qodg_nodes = 0;
    double iig_edges = 0;
    double coverage_bins = 0;
};
[[nodiscard]] LayerCounts& layer_counts();

/// pipeline.resolve { benchgen.generate | parser.load, synth.ft_synthesize }
/// then pipeline.graphs { qodg.build, iig.build, profile.build }.
[[nodiscard]] FrontEnd build_front_end(const CircuitInput& input);

/// Per-kind delay table: the FT gate delays plus \p extra_us (non-FT kinds
/// get 0; they never occur in an FT circuit).
[[nodiscard]] std::array<double, leqa::circuit::kGateKindCount> ft_delays(
    const leqa::fabric::PhysicalParams& params, double extra_us);

/// fabric.coverage and engine.surfaces probes, qodg.longest_path and
/// qodg.census probes, then engine.scalar_estimate (the real estimate).
[[nodiscard]] leqa::core::LeqaEstimate traced_estimate(const leqa::qodg::Qodg& graph,
                                                       const leqa::core::CircuitProfile& profile,
                                                       const leqa::fabric::PhysicalParams& params);

/// LEQA latency of one input at the default fabric: through a fresh
/// `Pipeline` (synthesis off for the FT fixture), or, when \p decomposed,
/// through build_front_end + traced_estimate.
[[nodiscard]] double estimate_input(const CircuitInput& input, bool decomposed);

/// One RunMode::Both outcome.
struct MapOutcome {
    double leqa_us = 0.0;
    double qspr_us = 0.0;
    std::size_t ft_ops = 0;
    leqa::qspr::QsprStats stats;
};

/// RunMode::Both for a suite circuit on a warm pipeline: `Pipeline::run`,
/// or, when \p decomposed, pipeline.resolve + traced_estimate +
/// qspr.placement (probe) + qspr.map.
[[nodiscard]] MapOutcome map_circuit(leqa::pipeline::Pipeline& pipe, const std::string& circuit,
                                     bool decomposed);

/// Seeded greedy placement search on a cached circuit: qspr.placement (the
/// session mapper's initial homes) then placed.optimize
/// (`core::optimize_placement`).
[[nodiscard]] leqa::core::OptimizeResult optimize_circuit(leqa::pipeline::Pipeline& pipe,
                                                          const std::string& circuit,
                                                          std::uint64_t seed, std::size_t moves);

/// Summed latency of every point (the exploration / sweep checksum).
[[nodiscard]] double checksum_us(const std::vector<leqa::core::SweepPoint>& points);

/// Counters the per-layer metrics need that are not span times: the
/// layers' own statistics, gathered by the workload and the oracle.
struct LayerInputs {
    leqa::pipeline::CacheStats cache;      ///< summed over the run's pipelines
    leqa::core::SurfaceCacheStats surfaces; ///< explore/sweep engines
    double batch_points = 0;               ///< explore + sweep points evaluated
    bool has_service = false;
    leqa::service::ServiceStats service;   ///< the measured service's stats()
    Samples stats_rtt_s;                   ///< client round trip of stats ops
    Samples overhead_s;                    ///< client RTT minus pipeline total
    Samples generator_lag_s;               ///< open-loop send lateness
    double framing_mb_per_s = 0;           ///< response stream through LineReader
    Samples response_bytes;                ///< response line sizes
    double qspr_ops = 0;                   ///< FT ops mapped
    leqa::qspr::QsprStats qspr;            ///< summed hop / eviction counts
    double moves_attempted = 0, moves_accepted = 0, moves_fast_rejected = 0,
           nodes_retimed = 0;

    void add_cache(const leqa::pipeline::CacheStats& stats);
    void add_qspr(const leqa::qspr::QsprStats& stats, std::size_t ft_ops);
    void add_optimize(const leqa::core::OptimizeResult& result);
};

/// Every per-layer metric, from the trace (span totals over the traced run:
/// setup, the fixed iterations, and the oracle) and \p inputs.
void report_layers(Report& report, const TraceSummary& trace, const LayerInputs& inputs);

/// Replace the body of the "stage_times_s" object (wall times, the only
/// run-dependent part of a result document) with nothing.
[[nodiscard]] std::string mask_stage_times(std::string json);

/// "result.stage_times_s.total" of an estimate response line (0 if absent).
[[nodiscard]] double stage_total_s(const std::string& line);

/// The wire line a direct Pipeline::run result must match byte for byte:
/// {"id":N,"result":<report::result_to_json(result)>}.
[[nodiscard]] std::string expected_result_line(std::uint64_t id,
                                               const leqa::pipeline::EstimationResult& result);

} // namespace perfbench
