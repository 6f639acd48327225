/// \file engine.h
/// \brief The staged estimation engine: circuit-invariant profile stage +
///        parameter-dependent stage.
///
/// LEQA's value proposition is being the fast inner loop of design-space
/// exploration, yet Algorithm 1 as written mixes circuit-sized work (IIG
/// statistics, the a x b coverage table) with parameter-dependent work.
/// The engine splits it:
///
///   stage 1 — `CircuitProfile` (per circuit, parameter-free):
///     QODG structure, IIG-derived statistics (B of Eq. 7 and the
///     circuit-only factor of d_uncongest, Eqs. 12/15/16 — v divides out),
///     per-kind gate counts, all read from the QODG's tape.  Build once,
///     reuse across every parameter point; the pipeline caches it next to
///     the QODG.
///
///   stage 2 — `EstimationEngine::estimate(profile)` (per parameter point):
///     the coverage table of Eq. 5 is compressed to its O(s^2) distinct
///     (probability, multiplicity) bins (`fabric::CoverageHistogram`; see
///     DESIGN.md for the counting argument), and E[S_q] (Eq. 4) is
///     evaluated with the paper's Eq. 18 running recursion — two multiplies
///     per (bin, q) instead of three lgammas, two logs and an exp per
///     (cell, q).  The remaining per-point work is the critical-path pass
///     over the QODG (`Qodg::longest_path_lanes`, up to 32 points a pass).
///
/// This is the only estimation path; `LeqaEstimator::estimate_reference`
/// keeps the pre-refactor O(a*b*T) evaluation as the golden reference the
/// parity tests compare against.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/leqa.h"
#include "fabric/params.h"
#include "fabric/topology.h"
#include "iig/iig.h"
#include "qodg/qodg.h"

namespace leqa::core {

/// Stage-1 artifact: everything Algorithm 1 needs that depends only on the
/// circuit, never on the fabric parameters.  Borrows the QODG (the pipeline
/// keeps graph and profile alive together).
struct CircuitProfile {
    std::size_t num_qubits = 0;
    std::size_t num_ops = 0;

    /// B, the average presence-zone area (Eq. 7).
    double zone_area_b = 1.0;

    /// The circuit-only factor of d_uncongest (Eq. 12): the W_i-weighted
    /// average of E[l_ham,i] / M_i (Eqs. 15-16).  The speed parameter v
    /// divides out of the average, so d_uncongest = d_uncongest_v / v.
    double d_uncongest_v = 0.0;

    /// Per-kind operation counts over the whole circuit.
    std::array<std::size_t, circuit::kGateKindCount> gate_counts{};

    /// Dependency structure for the critical-path stage (borrowed).
    const qodg::Qodg* graph = nullptr;

    /// Build from the QODG alone: gate counts from its tape, M_i and W_i
    /// from the IIG its tape gives (the pipeline's path; not retained).
    [[nodiscard]] static CircuitProfile build(const qodg::Qodg& graph);

    /// Build from prebuilt graphs of one circuit; the IIG is consumed
    /// statistically and not retained.  Bit-identical to build(graph).
    /// Throws InputError when the IIG's qubit count is not the QODG's.
    [[nodiscard]] static CircuitProfile build(const qodg::Qodg& graph,
                                              const iig::Iig& iig);
};

/// One (Nc, v) point of a batched parameter-stage evaluation.  Geometry and
/// gate delays come from the engine's params; only the congestion inputs
/// vary per point, which is exactly what sweep/explore axes vary within a
/// fixed-geometry slice.
struct ParameterPoint {
    int nc = 1;     ///< channel capacity, >= 1
    double v = 0.0; ///< qubit movement speed, > 0
};

/// Counters for the engine's one E[S_q] slot: a batch that finds the
/// profile's vector held counts a hit, any other a recompute, and a
/// recompute that replaces a held vector (a second profile on the same
/// engine) also counts an eviction.
struct SurfaceCacheStats {
    std::size_t hits = 0;
    std::size_t recomputes = 0;
    std::size_t evictions = 0;
};

/// Stage 2: runs Algorithm 1 against a profile at one parameter point.
///
/// The fabric shape enters only through `fabric::Topology`: the zone
/// extent and coverage histogram come from the params' topology, so the
/// same staged evaluation covers grid, torus and line fabrics (grid is
/// bit-compatible with the pre-topology code).
///
/// The parameters are fixed at construction.  The engine holds one E[S_q]
/// vector across calls: with the geometry fixed, the surfaces depend only
/// on the profile's (zone extent, Q, terms), never on (Nc, v), so repeated
/// batches over one profile (the calibrator's v search) pay only the
/// congestion algebra and the critical-path pass.  The slot makes
/// concurrent calls on one engine instance unsafe; use one engine per
/// thread (the pipeline constructs one per request, explore one per
/// geometry group).
class EstimationEngine {
public:
    explicit EstimationEngine(const fabric::PhysicalParams& params,
                              LeqaOptions options = {});

    /// Estimate at the engine's parameter point: a one-point
    /// estimate_batch(), within 1e-9 relative of
    /// `LeqaEstimator::estimate_reference`.
    [[nodiscard]] LeqaEstimate estimate(const CircuitProfile& profile) const;

    /// Batched parameter stage: estimate the profile at every (Nc, v) point
    /// against the engine's fixed geometry and gate delays.  The E[S_q]
    /// lookup is done once, and the critical-path pass runs lane-blocked:
    /// one forward pass over the QODG serves up to 32 points (blocks of
    /// 32, then 8, then the rest; a lone point runs at width 1).  Each
    /// point's result is bit-identical to estimate() at params whose nc/v
    /// are overridden, whatever block it lands in.
    ///
    /// `before_point`, when set, is invoked once per point before that
    /// point's evaluation (sweep cancellation hooks); a throw from it
    /// aborts the batch.
    [[nodiscard]] std::vector<LeqaEstimate> estimate_batch(
        const CircuitProfile& profile, std::span<const ParameterPoint> points,
        const std::function<void()>& before_point = {}) const;

    /// Expected q-fold-covered surfaces E[S_q] for q = 1..terms (Eq. 4)
    /// over a compressed coverage table.  All histogram bins advance in
    /// lockstep through one SoA Eq. 18 recursion (`mathx::BinomialRowBatch`)
    /// — flat multiply/renormalize loops over contiguous lanes.
    [[nodiscard]] static std::vector<double> expected_surfaces(
        const fabric::CoverageHistogram& coverage, long long num_zones, long long terms);

    /// Pre-SoA evaluation: one scalar `BinomialTermRecursion` object per
    /// bin, advanced bin-by-bin.  Kept as the parity reference for the SoA
    /// kernel (tests assert bit-identity) and as the scalar side of the
    /// surfaces microbenchmarks.
    [[nodiscard]] static std::vector<double> expected_surfaces_reference(
        const fabric::CoverageHistogram& coverage, long long num_zones, long long terms);

    [[nodiscard]] const fabric::PhysicalParams& params() const { return params_; }
    [[nodiscard]] const LeqaOptions& options() const { return options_; }

    /// The topology instance the engine estimates on.
    [[nodiscard]] const fabric::Topology& topology() const { return *topology_; }

    /// Lifetime counters of the E[S_q] slot (hits / recomputes / evictions).
    [[nodiscard]] const SurfaceCacheStats& surface_cache_stats() const {
        return surface_stats_;
    }

private:
    /// What identifies the held E[S_q] vector on a fixed geometry.
    struct SurfaceKey {
        int side = -1; ///< zone extent; -1 while nothing is held
        long long q_total = -1;
        long long terms = -1;
        [[nodiscard]] bool operator==(const SurfaceKey&) const = default;
    };

    fabric::PhysicalParams params_;
    LeqaOptions options_;
    std::shared_ptr<const fabric::Topology> topology_;
    mutable SurfaceKey surface_key_;
    mutable std::vector<double> surface_e_sq_;
    mutable SurfaceCacheStats surface_stats_;
};

} // namespace leqa::core
