#include "core/sweep.h"

#include <cmath>
#include <utility>

#include "core/explore.h"
#include "util/error.h"

namespace leqa::core {

std::size_t best_point_index(const std::vector<SweepPoint>& points,
                             std::size_t* non_finite) {
    std::size_t best = kNoBestPoint;
    std::size_t bad = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const double latency = points[i].estimate.latency_us;
        if (!std::isfinite(latency)) {
            ++bad;
            continue;
        }
        if (best == kNoBestPoint || latency < points[best].estimate.latency_us) {
            best = i;
        }
    }
    if (non_finite != nullptr) *non_finite = bad;
    return best;
}

SweepResult SweepResult::from(ExplorationResult&& explored) {
    SweepResult result;
    result.points = std::move(explored.points);
    result.best_index = explored.best_index;
    result.non_finite_points = explored.non_finite_points;
    result.surface_cache = explored.surface_cache;
    return result;
}

const SweepPoint& SweepResult::best() const {
    LEQA_REQUIRE(has_best(), "sweep has no finite-latency point");
    return points.at(best_index);
}

} // namespace leqa::core
