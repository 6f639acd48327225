/// \file explore.h
/// \brief Parallel multi-dimensional design-space exploration.
///
/// The paper positions LEQA as the inner loop of design-space exploration
/// ("size of the fabric ... can be changed to find the optimal size"), and
/// the companion ion-trap mapping work explores a cross-product of fabric
/// knobs rather than one axis at a time.  `explore` evaluates the full
/// cross-product of an `ExplorationSpec` — topology kinds x fabric sides x
/// channel capacities Nc x qubit speeds v, each axis defaulting to the base
/// parameter point — over a shared thread pool:
///
///   - points are partitioned per-thread in whole *geometry groups* (runs of
///     identical topology/width/height); each group varies only (Nc, v), so
///     it is one `EstimationEngine` and one `estimate_batch` call, paying
///     one E[S_q] computation (an engine is thread-unsafe and never shared);
///   - cooperative cancellation: `between_points` runs before every point
///     on whichever worker owns it, an exception thrown from it (e.g. a
///     `RunControl` checkpoint) aborts the other workers at their next
///     checkpoint and is rethrown — a cancelled exploration publishes no
///     partial result;
///   - results are written into a preallocated slot per point, so the
///     output is bit-identical to a serial evaluation of the same
///     configurations regardless of the thread count.
///
/// A 1-D sweep is a single-axis spec (`Pipeline::sweep`), so this file owns
/// the only evaluation loop.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "core/engine.h"
#include "core/leqa.h"
#include "core/sweep.h"
#include "fabric/params.h"

namespace leqa::core {

/// Axes of a multi-dimensional exploration.  An empty axis keeps the base
/// parameter's value; the evaluated set is the full cross-product (axis
/// order topology, side, Nc, v — v innermost).  A side s means an s x s
/// fabric on grid/torus and the area-equivalent s*s x 1 row on a line; with
/// no side axis the base geometry is kept (a line flattens the base area to
/// an (a*b) x 1 row).  Sides too small to host the circuit's qubits are
/// skipped.
struct ExplorationSpec {
    std::vector<fabric::TopologyKind> topologies; ///< empty: base topology
    std::vector<int> sides;                       ///< empty: base geometry
    std::vector<int> capacities;                  ///< empty: base Nc
    std::vector<double> speeds;                   ///< empty: base v
    std::size_t threads = 1; ///< worker threads; 0 = hardware concurrency

    [[nodiscard]] bool operator==(const ExplorationSpec&) const = default;
};

/// The latency-minimal point of one topology kind.
struct TopologyBest {
    fabric::TopologyKind kind = fabric::TopologyKind::Grid;
    std::size_t index = 0; ///< into ExplorationResult::points
};

/// Everything an exploration produces.  `points` is in deterministic
/// cross-product order; `best_index` / `best_per_topology` consider only
/// points with finite latency (`non_finite_points` counts the skipped
/// ones); `pareto_front` holds the indices of the latency/fabric-area
/// Pareto front — points no other point beats on both area and latency
/// (ties keep the lowest index) — sorted by area ascending, i.e. latency
/// strictly decreasing.
struct ExplorationResult {
    std::vector<SweepPoint> points;
    std::size_t best_index = kNoBestPoint; ///< kNoBestPoint if none finite
    std::size_t non_finite_points = 0;
    std::vector<TopologyBest> best_per_topology; ///< first-appearance order
    std::vector<std::size_t> pareto_front;       ///< fabric-area ascending
    std::size_t threads_used = 1;
    /// Summed E[S_q] slot counters of the per-group engines.
    SurfaceCacheStats surface_cache;

    [[nodiscard]] bool has_best() const { return best_index != kNoBestPoint; }
    /// Throws InputError when no point has a finite latency.
    [[nodiscard]] const SweepPoint& best() const;
};

/// Expand the cross-product of \p spec over \p base into concrete parameter
/// points (cross-product order, infeasible sides skipped).  Line-topology
/// area-equivalent widths are computed in 64-bit and validated against the
/// int range: a side whose s*s (or a base whose a*b) does not fit throws
/// InputError naming the offending side instead of silently wrapping.
[[nodiscard]] std::vector<fabric::PhysicalParams> exploration_configurations(
    std::size_t num_qubits, const fabric::PhysicalParams& base,
    const ExplorationSpec& spec);

/// The shared evaluation loop: estimate \p profile at every configuration
/// on \p threads workers (0 = hardware concurrency; the pool is capped at
/// the number of geometry groups).  Throws InputError("sweep has no
/// feasible configurations") on an empty list.  See the file comment for
/// the partitioning, cancellation, and determinism contract.
[[nodiscard]] ExplorationResult evaluate_configurations(
    const CircuitProfile& profile,
    const std::vector<fabric::PhysicalParams>& configurations,
    const LeqaOptions& options = {}, std::size_t threads = 1,
    const std::function<void()>& between_points = {});

/// Explore the full cross-product of \p spec over \p base.
[[nodiscard]] ExplorationResult explore(
    const CircuitProfile& profile, const fabric::PhysicalParams& base,
    const ExplorationSpec& spec, const LeqaOptions& options = {},
    const std::function<void()>& between_points = {});

} // namespace leqa::core
