/// \file sweep.h
/// \brief The result of a one-parameter design-space sweep.
///
/// The paper positions LEQA as the inner loop of design exploration: "Size
/// of the fabric ... can be changed to find the optimal size for the
/// fabric which results in the minimum delay."  A sweep over one family
/// (fabric side, channel capacity, qubit speed, topology) is a single-axis
/// `ExplorationSpec` evaluated by core/explore.h; `Pipeline::sweep` runs it
/// on the session cache and hands back this result: the evaluated points
/// and the latency-minimal one.
#pragma once

#include <vector>

#include "core/engine.h"
#include "core/leqa.h"
#include "fabric/params.h"

namespace leqa::core {

struct ExplorationResult;

struct SweepPoint {
    fabric::PhysicalParams params;
    LeqaEstimate estimate;
};

/// Sentinel best-point index: no point has a finite latency.
inline constexpr std::size_t kNoBestPoint = static_cast<std::size_t>(-1);

/// Index of the latency-minimal point among points with *finite* latency.
/// Non-finite estimates (NaN or infinity) never stick as the best: a NaN
/// first point would defeat every subsequent `<` comparison and shadow the
/// real minimum forever.  Returns kNoBestPoint when no point is finite;
/// \p non_finite (optional) receives the number of non-finite points.
[[nodiscard]] std::size_t best_point_index(const std::vector<SweepPoint>& points,
                                           std::size_t* non_finite = nullptr);

struct SweepResult {
    std::vector<SweepPoint> points;
    /// Index of the minimum-latency point among finite-latency points;
    /// kNoBestPoint when every point came back non-finite.
    std::size_t best_index = kNoBestPoint;
    /// Points whose latency was NaN/infinite (skipped for best selection).
    std::size_t non_finite_points = 0;
    /// E[S_q] slot counters summed over the sweep's engines, one per
    /// geometry group (counters only; not part of the bit-identity contract).
    SurfaceCacheStats surface_cache;

    /// A single-axis exploration as a sweep: the points and best selection
    /// carry over, the Pareto front and per-topology bests are dropped.
    [[nodiscard]] static SweepResult from(ExplorationResult&& explored);

    [[nodiscard]] bool has_best() const { return best_index != kNoBestPoint; }
    /// Throws InputError when no point has a finite latency.
    [[nodiscard]] const SweepPoint& best() const;
};

} // namespace leqa::core
