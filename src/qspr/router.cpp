#include "qspr/router.h"

#include <algorithm>
#include <functional>

#include "util/error.h"
#include "util/strings.h"

namespace leqa::qspr {

RoutingAlgorithm parse_routing_algorithm(const std::string& name) {
    const std::string lowered = util::to_lower(name);
    if (lowered == "xy" || lowered == "shortest") return RoutingAlgorithm::Xy;
    if (lowered == "maze") return RoutingAlgorithm::Maze;
    throw util::InputError("unknown routing algorithm: " + name);
}

std::string routing_algorithm_name(RoutingAlgorithm algorithm) {
    switch (algorithm) {
        case RoutingAlgorithm::Xy: return "xy";
        case RoutingAlgorithm::Maze: return "maze";
    }
    return "?";
}

MazeRouter::MazeRouter(const fabric::Topology& topology, int margin)
    : topology_(topology), margin_(margin) {
    LEQA_REQUIRE(margin >= 0, "router margin must be non-negative");
    cost_.resize(topology.num_ulbs());
    via_segment_.resize(topology.num_ulbs());
    via_node_.resize(topology.num_ulbs());
    stamp_.assign(topology.num_ulbs(), 0);
}

void MazeRouter::route(fabric::UlbCoord from, fabric::UlbCoord to, double depart_us,
                       const ChannelReservations& channels,
                       std::vector<fabric::SegmentId>& path) const {
    path.clear();
    if (from == to) return;
    const double nc = static_cast<double>(channels.capacity());

    // Detour window.  Grid: the legacy bounding box of the endpoints plus
    // the margin (bit-compatible with the pre-topology router).  Other
    // topologies: ULBs whose detour over the shortest route is at most
    // 2 * margin hops -- the metric generalization of that box.
    const bool is_grid = topology_.kind() == fabric::TopologyKind::Grid;
    const int min_x = std::max(0, std::min(from.x, to.x) - margin_);
    const int max_x = std::min(topology_.width() - 1, std::max(from.x, to.x) + margin_);
    const int min_y = std::max(0, std::min(from.y, to.y) - margin_);
    const int max_y = std::min(topology_.height() - 1, std::max(from.y, to.y) + margin_);
    const int detour_budget = topology_.distance(from, to) + 2 * margin_;
    const auto in_window = [&](fabric::UlbCoord c) {
        if (is_grid) {
            return c.x >= min_x && c.x <= max_x && c.y >= min_y && c.y <= max_y;
        }
        return topology_.distance(from, c) + topology_.distance(c, to) <= detour_budget;
    };

    ++current_stamp_;
    if (current_stamp_ == 0) { // stamp wrap: reset
        std::fill(stamp_.begin(), stamp_.end(), 0);
        current_stamp_ = 1;
    }

    // A min-heap on (cost, node), pushed and popped as std::priority_queue
    // does, so ties pop in the same order.
    frontier_.clear();

    const fabric::UlbId source = topology_.ulb_id(from);
    const fabric::UlbId target = topology_.ulb_id(to);
    cost_[static_cast<std::size_t>(source)] = 0.0;
    via_node_[static_cast<std::size_t>(source)] = source;
    stamp_[static_cast<std::size_t>(source)] = current_stamp_;
    frontier_.push_back({0.0, source});

    while (!frontier_.empty()) {
        std::pop_heap(frontier_.begin(), frontier_.end(), std::greater<>{});
        const auto [node_cost, node] = frontier_.back();
        frontier_.pop_back();
        if (node == target) break;
        if (node_cost > cost_[static_cast<std::size_t>(node)] + 1e-12) continue; // stale
        for (const fabric::Link link : topology_.links(node)) {
            const fabric::UlbId next_id = link.ulb;
            if (!in_window(topology_.ulb_coord(next_id))) continue;
            const fabric::SegmentId segment = link.segment;
            // Congestion pressure: occupancy of the segment around the
            // estimated arrival time inflates the hop cost.
            const double eta = depart_us + node_cost;
            const int load = channels.occupancy_at(segment, eta);
            const double hop_cost = channels.slot_us() * (1.0 + static_cast<double>(load) / nc);
            const double next_cost = node_cost + hop_cost;
            const auto idx = static_cast<std::size_t>(next_id);
            if (stamp_[idx] == current_stamp_ && cost_[idx] <= next_cost + 1e-12) {
                continue;
            }
            stamp_[idx] = current_stamp_;
            cost_[idx] = next_cost;
            via_node_[idx] = node;
            via_segment_[idx] = segment;
            frontier_.push_back({next_cost, next_id});
            std::push_heap(frontier_.begin(), frontier_.end(), std::greater<>{});
        }
    }

    LEQA_CHECK(stamp_[static_cast<std::size_t>(target)] == current_stamp_,
               "maze router failed to reach the target");
    for (fabric::UlbId cursor = target; cursor != source;
         cursor = via_node_[static_cast<std::size_t>(cursor)]) {
        path.push_back(via_segment_[static_cast<std::size_t>(cursor)]);
    }
    std::reverse(path.begin(), path.end());
}

} // namespace leqa::qspr
