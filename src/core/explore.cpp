#include "core/explore.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>
#include <utility>

#include "util/error.h"
#include "util/thread_annotations.h"

namespace leqa::core {

namespace {

/// Width of the area-equivalent 1D row, validated against the int range
/// before the narrowing that used to silently wrap for large fabrics.
int line_width_for_area(long long area, const std::string& described_as) {
    if (area > static_cast<long long>(std::numeric_limits<int>::max())) {
        throw util::InputError(
            "line-topology area-equivalent width " + std::to_string(area) + " (from " +
            described_as + ") exceeds the int range; use a smaller fabric");
    }
    return static_cast<int>(area);
}

/// Apply one (topology, side) geometry choice onto a copy of the base
/// parameters.  side == 0 means "keep the base geometry" (internal
/// sentinel; user-supplied sides are validated >= 1 by the caller).
void apply_geometry(fabric::PhysicalParams& params, fabric::TopologyKind kind,
                    int side, const fabric::PhysicalParams& base) {
    params.topology = kind;
    if (side > 0) {
        if (kind == fabric::TopologyKind::Line) {
            // Area-equivalent row: a "side s" point is the s*s x 1 fabric.
            const long long area = static_cast<long long>(side) * side;
            params.width =
                line_width_for_area(area, "side " + std::to_string(side));
            params.height = 1;
        } else {
            params.width = side;
            params.height = side;
        }
    } else if (kind == fabric::TopologyKind::Line) {
        params.width = line_width_for_area(
            base.area(), "the " + std::to_string(base.width) + "x" +
                             std::to_string(base.height) + " base fabric");
        params.height = 1;
    } // else: grid/torus keep the base geometry
}

/// Contiguous [first, last) runs of identical (topology, width, height).
/// A run varies only (Nc, v), the engine's batch axis, so each run is one
/// engine and one estimate_batch call: one E[S_q] computation per run.
std::vector<std::pair<std::size_t, std::size_t>> geometry_groups(
    const std::vector<fabric::PhysicalParams>& configurations) {
    std::vector<std::pair<std::size_t, std::size_t>> groups;
    for (std::size_t i = 0; i < configurations.size(); ++i) {
        const fabric::PhysicalParams& params = configurations[i];
        if (!groups.empty()) {
            const fabric::PhysicalParams& previous = configurations[i - 1];
            if (params.topology == previous.topology &&
                params.width == previous.width && params.height == previous.height) {
                groups.back().second = i + 1;
                continue;
            }
        }
        groups.emplace_back(i, i + 1);
    }
    return groups;
}

/// The per-topology latency minima, in order of first appearance.
std::vector<TopologyBest> best_by_topology(const std::vector<SweepPoint>& points) {
    std::vector<TopologyBest> best;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double latency = points[i].estimate.latency_us;
        if (!std::isfinite(latency)) continue;
        const fabric::TopologyKind kind = points[i].params.topology;
        auto it = std::find_if(best.begin(), best.end(),
                               [kind](const TopologyBest& entry) {
                                   return entry.kind == kind;
                               });
        if (it == best.end()) {
            best.push_back(TopologyBest{kind, i});
        } else if (latency < points[it->index].estimate.latency_us) {
            it->index = i;
        }
    }
    return best;
}

/// The latency/fabric-area Pareto front: indices of points no other point
/// beats on both axes (<= on both, < on one); duplicate (area, latency)
/// pairs keep the lowest index.  Sorted by area ascending, which makes the
/// latencies strictly decreasing.
std::vector<std::size_t> pareto_front_indices(const std::vector<SweepPoint>& points) {
    std::vector<std::size_t> order;
    order.reserve(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        if (std::isfinite(points[i].estimate.latency_us)) order.push_back(i);
    }
    std::sort(order.begin(), order.end(), [&points](std::size_t lhs, std::size_t rhs) {
        const long long area_l = points[lhs].params.area();
        const long long area_r = points[rhs].params.area();
        if (area_l != area_r) return area_l < area_r;
        const double latency_l = points[lhs].estimate.latency_us;
        const double latency_r = points[rhs].estimate.latency_us;
        if (latency_l != latency_r) return latency_l < latency_r;
        return lhs < rhs;
    });
    std::vector<std::size_t> front;
    double best_latency = std::numeric_limits<double>::infinity();
    for (const std::size_t index : order) {
        if (points[index].estimate.latency_us < best_latency) {
            front.push_back(index);
            best_latency = points[index].estimate.latency_us;
        }
    }
    return front;
}

} // namespace

const SweepPoint& ExplorationResult::best() const {
    LEQA_REQUIRE(has_best(), "exploration has no finite-latency point");
    return points.at(best_index);
}

std::vector<fabric::PhysicalParams> exploration_configurations(
    std::size_t num_qubits, const fabric::PhysicalParams& base,
    const ExplorationSpec& spec) {
    const std::vector<fabric::TopologyKind> kinds =
        spec.topologies.empty() ? std::vector<fabric::TopologyKind>{base.topology}
                                : spec.topologies;
    const bool explicit_sides = !spec.sides.empty();
    const std::vector<int> sides = explicit_sides ? spec.sides : std::vector<int>{0};
    const std::vector<int> capacities =
        spec.capacities.empty() ? std::vector<int>{base.nc} : spec.capacities;
    const std::vector<double> speeds =
        spec.speeds.empty() ? std::vector<double>{base.v} : spec.speeds;

    std::vector<fabric::PhysicalParams> configurations;
    configurations.reserve(kinds.size() * sides.size() * capacities.size() *
                           speeds.size());
    for (const fabric::TopologyKind kind : kinds) {
        for (const int side : sides) {
            if (explicit_sides) {
                LEQA_REQUIRE(side >= 1, "fabric side must be >= 1");
                if (static_cast<std::size_t>(side) * static_cast<std::size_t>(side) <
                    num_qubits) {
                    continue; // cannot host the circuit
                }
            }
            fabric::PhysicalParams geometry = base;
            apply_geometry(geometry, kind, explicit_sides ? side : 0, base);
            for (const int nc : capacities) {
                LEQA_REQUIRE(nc >= 1, "channel capacity must be >= 1");
                for (const double v : speeds) {
                    LEQA_REQUIRE(v > 0.0, "speed must be positive");
                    fabric::PhysicalParams params = geometry;
                    params.nc = nc;
                    params.v = v;
                    params.validate();
                    configurations.push_back(params);
                }
            }
        }
    }
    return configurations;
}

ExplorationResult evaluate_configurations(
    const CircuitProfile& profile,
    const std::vector<fabric::PhysicalParams>& configurations,
    const LeqaOptions& options, std::size_t threads,
    const std::function<void()>& between_points) {
    LEQA_REQUIRE(!configurations.empty(), "sweep has no feasible configurations");

    const std::vector<std::pair<std::size_t, std::size_t>> groups =
        geometry_groups(configurations);
    std::size_t workers = threads == 0
                              ? std::max<std::size_t>(
                                    1, std::thread::hardware_concurrency())
                              : threads;
    workers = std::max<std::size_t>(1, std::min(workers, groups.size()));

    ExplorationResult result;
    result.points.resize(configurations.size());
    result.threads_used = workers;

    // Every worker owns whole geometry groups (cyclic assignment) and its
    // own engine; slots are disjoint, so no synchronization is needed on
    // the results and the output is bit-identical to the serial order.
    // Each group shares one fabric geometry and varies only (Nc, v), which
    // is exactly the engine's batch axis: the whole group becomes a single
    // estimate_batch call that amortizes the E[S_q] lookup and runs the
    // critical-path pass lane-blocked.
    struct AbortRequested {}; // private unwind signal, never escapes run_slice
    std::atomic<bool> abort{false};
    /// First failure wins; the slot is the workers' only cross-thread write
    /// target (result.points slots are disjoint by construction), so it is
    /// the one piece of exploration state that needs a capability.
    struct FailureSlot {
        util::Mutex mutex;
        std::exception_ptr first LEQA_GUARDED_BY(mutex);
    };
    FailureSlot failure;
    // One slot per worker, summed after the join.  Every group builds its
    // own engine, so the totals do not depend on the thread count.
    std::vector<SurfaceCacheStats> worker_surface(workers);
    const auto run_slice = [&](std::size_t worker) {
        try {
            std::vector<ParameterPoint> batch;
            for (std::size_t g = worker; g < groups.size(); g += workers) {
                const auto [first, last] = groups[g];
                const EstimationEngine engine(configurations[first], options);
                batch.clear();
                for (std::size_t i = first; i < last; ++i) {
                    batch.push_back(
                        ParameterPoint{configurations[i].nc, configurations[i].v});
                }
                // The cancellation contract is per point, not per batch:
                // the engine invokes this before each point's evaluation.
                const auto before_point = [&] {
                    if (abort.load(std::memory_order_relaxed)) throw AbortRequested{};
                    if (between_points) between_points();
                };
                std::vector<LeqaEstimate> estimates =
                    engine.estimate_batch(profile, batch, before_point);
                for (std::size_t i = first; i < last; ++i) {
                    result.points[i] = SweepPoint{configurations[i],
                                                  std::move(estimates[i - first])};
                }
                const SurfaceCacheStats& stats = engine.surface_cache_stats();
                worker_surface[worker].hits += stats.hits;
                worker_surface[worker].recomputes += stats.recomputes;
                worker_surface[worker].evictions += stats.evictions;
            }
        } catch (const AbortRequested&) {
            // Another worker failed or cancelled; our partial results are
            // discarded with the grid.
        } catch (...) {
            const util::MutexLock lock(failure.mutex);
            if (failure.first == nullptr) failure.first = std::current_exception();
            abort.store(true, std::memory_order_relaxed);
        }
    };

    if (workers == 1) {
        run_slice(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers - 1);
        try {
            for (std::size_t w = 1; w < workers; ++w) {
                pool.emplace_back(run_slice, w);
            }
        } catch (...) {
            // A failed spawn (std::system_error under thread pressure) must
            // not unwind past joinable threads — that would std::terminate.
            // Spawned workers cover only their own slices, so stop them and
            // surface the failure instead of returning a partial grid.
            abort.store(true, std::memory_order_relaxed);
            for (std::thread& thread : pool) thread.join();
            throw;
        }
        run_slice(0);
        for (std::thread& thread : pool) thread.join();
    }
    // A cancelled/failed exploration publishes nothing, not a partial grid.
    // The workers are joined, but the capability contract holds everywhere:
    // read the slot under its lock.
    std::exception_ptr first_failure;
    {
        const util::MutexLock lock(failure.mutex);
        first_failure = failure.first;
    }
    if (first_failure != nullptr) std::rethrow_exception(first_failure);

    for (const SurfaceCacheStats& stats : worker_surface) {
        result.surface_cache.hits += stats.hits;
        result.surface_cache.recomputes += stats.recomputes;
        result.surface_cache.evictions += stats.evictions;
    }
    result.best_index = best_point_index(result.points, &result.non_finite_points);
    result.best_per_topology = best_by_topology(result.points);
    result.pareto_front = pareto_front_indices(result.points);
    return result;
}

ExplorationResult explore(const CircuitProfile& profile,
                          const fabric::PhysicalParams& base,
                          const ExplorationSpec& spec, const LeqaOptions& options,
                          const std::function<void()>& between_points) {
    return evaluate_configurations(
        profile, exploration_configurations(profile.num_qubits, base, spec), options,
        spec.threads, between_points);
}

} // namespace leqa::core
