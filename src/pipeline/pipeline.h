/// \file pipeline.h
/// \brief The unified session facade: a netlist file's reader, or FT
///        synthesis, streamed into the QODG -> LEQA estimate and/or QSPR
///        mapping, behind one API.
///
/// The paper positions LEQA as the fast inner loop of design-space
/// exploration ("more than four orders of magnitude" faster than a detailed
/// mapper).  Historically every consumer in this repo hand-wired the stage
/// plumbing and rebuilt the dependency graphs per parameter point; the
/// Pipeline owns that plumbing once:
///
///   - a keyed LRU cache of intermediates (the QODG a file's reader or
///     synthesis streams into, then, on first use, the
///     `core::CircuitProfile`, the IIG and the FT circuit) per circuit
///     identity, so fabric sweeps, QECC exploration
///     and calibration reuse the stage-1 artifacts instead of rebuilding
///     them;
///   - `run(request)` for one circuit, `run_batch_results(requests)` with
///     optional thread-pool parallelism for many;
///   - `sweep` / `explore` / `optimize` / `calibrate` entry points that run
///     core/explore, core/optimize and core/calibrate on the shared cache;
///   - per-stage wall times and cache statistics for the perf trajectory.
///
/// All cache access is mutex-guarded; `run_batch_results` is safe with any
/// thread count and bit-identical to sequential `run` calls.
#pragma once

#include <atomic>
#include <chrono>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/thread_annotations.h"

#include "circuit/circuit.h"
#include "core/calibrate.h"
#include "core/engine.h"
#include "core/explore.h"
#include "core/leqa.h"
#include "core/optimize.h"
#include "core/sweep.h"
#include "fabric/params.h"
#include "iig/iig.h"
#include "pipeline/input.h"
#include "qodg/qodg.h"
#include "qspr/qspr.h"
#include "synth/ft_synth.h"
#include "util/status.h"

namespace leqa::pipeline {

/// Everything a session holds fixed across requests.
struct PipelineConfig {
    fabric::PhysicalParams params;   ///< Table 1 defaults
    core::LeqaOptions leqa;          ///< estimator options
    qspr::QsprOptions qspr;          ///< detailed-mapper options
    synth::FtSynthOptions synth;     ///< FT synthesis toggles
    bool auto_synthesize = true;     ///< FT-synthesize non-FT inputs
    std::size_t max_cached_circuits = 64; ///< LRU bound on cached intermediates
};

/// What a request runs.
enum class RunMode {
    Estimate, ///< LEQA only (the fast path)
    Map,      ///< QSPR only (the detailed baseline)
    Both,     ///< both, e.g. for accuracy studies
};

/// One unit of work: a circuit source plus what to do with it.
struct EstimationRequest {
    CircuitSource source;
    RunMode mode = RunMode::Estimate;
    /// Per-request fabric-parameter override (the session default otherwise);
    /// this is how sweeps and QECC exploration share one cache.
    std::optional<fabric::PhysicalParams> params;
    std::string label; ///< echoed into the result / reports

    explicit EstimationRequest(CircuitSource src, RunMode run_mode = RunMode::Estimate)
        : source(std::move(src)), mode(run_mode) {}
};

/// Cooperative cancellation + deadline control for one run.  The pipeline
/// checks it at the stage boundaries (before resolve, before estimate,
/// before map): a set cancel flag raises util::CancelledError, a passed
/// deadline raises util::DeadlineError.  A running stage is never aborted
/// mid-flight -- cached intermediates stay consistent by construction.
struct RunControl {
    std::atomic<bool> cancel{false};
    std::optional<std::chrono::steady_clock::time_point> deadline;

    /// Throws CancelledError / DeadlineError when the run must stop.
    void checkpoint(const char* stage) const;
};

/// Wall-clock seconds per pipeline stage.  Cached stages report ~0.
struct StageTimes {
    /// read/generate + FT synthesis streamed into the QODG's tape (the
    /// QODG build of an FT input included); 0 on cache hit
    double resolve_s = 0.0;
    double graphs_s = 0.0;   ///< circuit profile from the tape (0 on cache hit)
    double estimate_s = 0.0; ///< LEQA Algorithm 1
    double map_s = 0.0;      ///< QSPR map-and-route
    double total_s = 0.0;
};

/// Identity and size of the circuit a result was computed on.
struct CircuitInfo {
    std::string name;          ///< display name
    std::string cache_key;     ///< full cache identity (source + synth options)
    std::size_t pre_ft_gates = 0; ///< gates read or generated, before synthesis
    std::size_t qubits = 0;       ///< logical qubits after synthesis
    std::size_t ft_ops = 0;       ///< FT operations after synthesis
    bool synthesized = false;     ///< whether FT synthesis ran
};

/// The facade's unit of output.
struct EstimationResult {
    std::string label;
    CircuitInfo circuit;
    fabric::PhysicalParams params; ///< parameters actually used
    std::optional<core::LeqaEstimate> estimate; ///< present for Estimate/Both
    std::optional<qspr::QsprResult> mapping;    ///< present for Map/Both
    StageTimes times;
};

/// Cache effectiveness counters (cumulative per Pipeline).
struct CacheStats {
    std::size_t circuit_hits = 0;   ///< entry served from cache
    std::size_t circuit_misses = 0; ///< parse + synthesis + QODG performed
    std::size_t graph_hits = 0;     ///< profile served from cache
    std::size_t graph_misses = 0;   ///< profile built
    std::size_t evictions = 0;      ///< LRU evictions
    /// Engine E[S_q] slot counters, summed over every engine the session
    /// ran (runs, sweeps, explorations).
    std::size_t surface_hits = 0;
    std::size_t surface_recomputes = 0;
    std::size_t surface_evictions = 0;

    [[nodiscard]] std::string to_string() const;
};

/// A cached circuit: its QODG, built when the entry is resolved, plus
/// views built once, on first use, safely under concurrent first use.
/// Handles stay valid after eviction (shared ownership).
///
/// The QODG's tape is all an estimate reads (the `Iig` comes from it
/// too); only the mapper (map, optimize, calibrate) needs `ft()`.  How the
/// entry gets its tape, and its `ft()`:
///   - a netlist file streams from its reader into the tape, with no
///     Circuit.  The entry keeps the file's text, and the first `ft()`
///     reads that text into a Circuit; the file is never opened again.
///     With `auto_synthesize` on, the read stops at the first non-FT gate,
///     and the text is read again into a Circuit that synthesizes below;
///   - a pre-FT input with `auto_synthesize` on streams FT synthesis into
///     the tape.  The entry keeps the pre-FT circuit and the synthesis
///     options, and the first `ft()` reruns the (deterministic) synthesis
///     on them;
///   - any other generator or inline input feeds the tape from its
///     circuit and keeps that circuit as its `ft()`.
/// So a map after an estimate gets the same gates, qubit names, comments
/// and name as a map on a fresh entry.
class CachedCircuit {
public:
    /// The FT circuit; built on first call unless resolve kept it.
    [[nodiscard]] const circuit::Circuit& ft() const;
    [[nodiscard]] const CircuitInfo& info() const { return info_; }
    [[nodiscard]] const synth::FtSynthStats& synth_stats() const { return synth_stats_; }

    /// The dependency graph (its CSR views are built on first use; see
    /// qodg/qodg.h).
    [[nodiscard]] const qodg::Qodg& qodg() const { return *qodg_; }
    /// The interaction graph, built from the QODG's tape on first call.
    [[nodiscard]] const iig::Iig& iig() const;

    /// The circuit-invariant stage-1 artifact (see core/engine.h), built
    /// from the QODG's tape on first call: sweeps and calibration
    /// re-estimate from it without touching the circuit again.
    [[nodiscard]] const core::CircuitProfile& profile() const;

private:
    friend class Pipeline;

    /// Force-build the profile; returns true when this call built it.
    bool ensure_graphs() const;

    CircuitInfo info_;
    synth::FtSynthStats synth_stats_;
    std::unique_ptr<const qodg::Qodg> qodg_;
    /// Synthesized entries: the pre-FT circuit and the options ft() reruns.
    circuit::Circuit pre_ft_;
    synth::FtSynthOptions synth_options_;
    /// Streamed netlist files: the text and path ft() reads.
    std::string netlist_;
    std::string netlist_path_;

    mutable std::once_flag ft_once_;
    mutable circuit::Circuit ft_; ///< set at resolve for a circuit-fed FT input
    mutable std::once_flag iig_once_;
    mutable std::unique_ptr<const iig::Iig> iig_;
    mutable std::once_flag profile_once_;
    mutable std::unique_ptr<const core::CircuitProfile> profile_;
};

using CachedCircuitPtr = std::shared_ptr<const CachedCircuit>;

/// The session facade.  Construct once, issue many requests.
class Pipeline {
public:
    explicit Pipeline(PipelineConfig config = {});

    /// Snapshot of the session configuration (a copy: the setters below may
    /// mutate it concurrently).
    [[nodiscard]] PipelineConfig config() const;

    /// Replace the session fabric parameters; cached circuits/graphs are
    /// parameter-independent and survive.
    void set_params(const fabric::PhysicalParams& params);
    /// Replace the estimator options (cache survives).
    void set_leqa_options(const core::LeqaOptions& options);
    /// Replace the mapper options (cache survives).
    void set_qspr_options(const qspr::QsprOptions& options);

    /// Resolve a source to its cached entry (reading / generating /
    /// synthesizing into the QODG's tape on first use).
    [[nodiscard]] CachedCircuitPtr resolve(const CircuitSource& source);

    /// Run one request.  With a non-null \p control the run observes its
    /// cancel flag / deadline at the stage boundaries.
    [[nodiscard]] EstimationResult run(const EstimationRequest& request,
                                       const RunControl* control = nullptr);

    /// Run one request without letting an exception escape: failures come
    /// back as a non-OK Status whose origin names the stage that failed
    /// ("config", "resolve", "estimate", "map").  This is the service
    /// boundary's entry point.
    [[nodiscard]] util::Result<EstimationResult> run_result(
        const EstimationRequest& request, const RunControl* control = nullptr);

    /// Run a batch with *per-request* outcomes: results are index-aligned
    /// with `requests`, successes identical to sequential `run` calls, and
    /// every failed request carries its own Status (nothing is swallowed).
    /// At most min(`threads`, batch size) threads run it; `threads` = 0
    /// means the hardware thread count, and 1 forces sequential.
    [[nodiscard]] std::vector<util::Result<EstimationResult>> run_batch_results(
        const std::vector<EstimationRequest>& requests, std::size_t threads = 0,
        const RunControl* control = nullptr);

    // --- design-space sweeps on the shared cache --------------------------

    /// A one-parameter sweep: \p spec names one axis (sides, topologies,
    /// capacities or speeds) and evaluates through the same code as
    /// `explore`, with the Pareto front and per-topology bests dropped.  The
    /// optional RunControl is observed before the resolve and before every
    /// point (stage "sweep").  Throws InputError("sweep has no feasible
    /// configurations") when every axis is empty.
    [[nodiscard]] core::SweepResult sweep(const CircuitSource& source,
                                          const core::ExplorationSpec& spec,
                                          const RunControl* control = nullptr);
    [[nodiscard]] core::SweepResult sweep_fabric_sides(
        const CircuitSource& source, const std::vector<int>& sides,
        const RunControl* control = nullptr);
    [[nodiscard]] core::SweepResult sweep_speed(const CircuitSource& source,
                                                const std::vector<double>& speeds,
                                                const RunControl* control = nullptr);

    /// Multi-dimensional design-space exploration on the shared cache: the
    /// circuit profile is resolved (and reused) from the session cache, then
    /// the cross-product of \p spec evaluates on spec.threads workers (see
    /// core/explore.h).  Each worker hands its fixed-geometry (Nc, v) runs
    /// to the engine's SoA batch parameter stage in whole-group calls.  An
    /// optional RunControl is observed before the resolve and between
    /// points — on whichever worker owns the point.
    [[nodiscard]] core::ExplorationResult explore(const CircuitSource& source,
                                                  const core::ExplorationSpec& spec,
                                                  const RunControl* control = nullptr);

    // --- placement optimization on the shared cache -----------------------

    /// Latency-driven placement search (core::optimize_placement) for one
    /// circuit: resolve through the cache, seed with the session mapper's
    /// initial placement (`config().qspr.placement` / `.seed`, or its
    /// explicit `initial_homes` when set), then anneal/greedy-refine under
    /// the placed timing model.  \p params overrides the session fabric for
    /// this call.  An optional RunControl is observed every few hundred
    /// moves.  The result's homes slot into `QsprOptions::initial_homes`
    /// to drive the detailed mapper with the optimized placement.
    [[nodiscard]] core::OptimizeResult optimize(
        const CircuitSource& source, const core::OptimizeOptions& options = {},
        const std::optional<fabric::PhysicalParams>& params = std::nullopt,
        const RunControl* control = nullptr);

    // --- calibration on the shared cache ----------------------------------

    /// Training pairs for the given sources: each circuit is resolved
    /// through the cache and mapped with the session's QSPR configuration.
    /// `graph_samples` borrow the cached QODGs, so the calibrator's v sweep
    /// performs zero graph rebuilds; the handles keep everything borrowed
    /// alive.
    struct TrainingSet {
        std::vector<CachedCircuitPtr> circuits;
        std::vector<core::GraphSample> graph_samples;
    };
    [[nodiscard]] TrainingSet training_samples(const std::vector<CircuitSource>& sources,
                                               const RunControl* control = nullptr);

    /// Fit v against the session mapper on the given training circuits.  An
    /// optional RunControl is observed before each training circuit is
    /// resolved and mapped (the slow part), so a cancel/deadline aborts
    /// between circuits.
    [[nodiscard]] core::CalibrationResult calibrate(
        const std::vector<CircuitSource>& training, const RunControl* control = nullptr);

    /// Fit v on an already-built training set (no re-mapping): the path for
    /// callers that also need the samples themselves (e.g. error curves).
    [[nodiscard]] core::CalibrationResult calibrate(const TrainingSet& training);

    /// Adopt a calibration result into the session parameters.
    void apply_calibration(const core::CalibrationResult& result);

    // --- cache management --------------------------------------------------

    [[nodiscard]] CacheStats cache_stats() const;
    [[nodiscard]] std::size_t cached_circuits() const;
    void clear_cache();

private:
    /// Reads config_ for the synth/fabric identity: call under mutex_.
    [[nodiscard]] std::string cache_key(const CircuitSource& source) const
        LEQA_REQUIRES(mutex_);
    [[nodiscard]] std::pair<fabric::PhysicalParams, core::LeqaOptions>
    snapshot_estimation_config() const LEQA_EXCLUDES(mutex_);
    [[nodiscard]] CachedCircuitPtr resolve_timed(const CircuitSource& source,
                                                 double* seconds)
        LEQA_EXCLUDES(mutex_);
    /// Force the profile and account the graph hit/miss.
    void ensure_graphs(const CachedCircuit& entry) LEQA_EXCLUDES(mutex_);
    /// Fold one engine's E[S_q] slot counters into the session stats.
    void note_surface_stats(const core::SurfaceCacheStats& stats)
        LEQA_EXCLUDES(mutex_);
    /// The body of explore() and sweep(): point checkpoints name \p stage.
    [[nodiscard]] core::ExplorationResult explore_cached(
        const CircuitSource& source, const core::ExplorationSpec& spec,
        const RunControl* control, const char* stage) LEQA_EXCLUDES(mutex_);
    /// The throwing core of run()/run_result(); \p stage tracks the stage
    /// in flight so run_result can attribute a failure's origin.
    [[nodiscard]] EstimationResult run_impl(const EstimationRequest& request,
                                            const RunControl* control,
                                            const char*& stage)
        LEQA_EXCLUDES(mutex_);

    /// Session configuration; mutable via the setters, snapshotted by every
    /// reader, hence guarded like the cache it keys.
    PipelineConfig config_ LEQA_GUARDED_BY(mutex_);

    mutable util::Mutex mutex_; ///< guards config_, cache_, lru_, inflight_, stats_
    struct Slot {
        CachedCircuitPtr entry;
        std::list<std::string>::iterator lru_pos;
    };
    std::unordered_map<std::string, Slot> cache_ LEQA_GUARDED_BY(mutex_);
    /// Most-recent first.
    std::list<std::string> lru_ LEQA_GUARDED_BY(mutex_);
    /// Keys being built right now; concurrent resolvers of the same key
    /// wait on the builder's future instead of duplicating parse+synthesis.
    std::unordered_map<std::string, std::shared_future<CachedCircuitPtr>>
        inflight_ LEQA_GUARDED_BY(mutex_);
    CacheStats stats_ LEQA_GUARDED_BY(mutex_);
};

} // namespace leqa::pipeline
