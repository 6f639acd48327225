/// \file router.h
/// \brief Congestion-aware maze routing on the TQA fabric.
///
/// The original QSPR performs detailed routing rather than fixed
/// dimension-ordered paths.  This router runs Dijkstra over a
/// `fabric::Topology`'s CSR adjacency and its aligned segment ids,
/// restricted to a detour window around source and destination; each
/// segment's edge cost is the hop time inflated by the segment's current
/// reservation pressure around the estimated arrival slot, so traffic
/// spreads around congested channels exactly the way a detailed mapper's
/// router would.
///
/// On a grid the window is the legacy bounding box (bit-compatible with the
/// pre-topology router); on other topologies it is the metric analogue:
/// ULBs whose detour over the shortest route stays within 2 * margin hops.
#pragma once

#include <string>
#include <vector>

#include "fabric/topology.h"
#include "qspr/channels.h"

namespace leqa::qspr {

enum class RoutingAlgorithm {
    Xy,    ///< fixed shortest-path routing (XY on a grid; BFS next-hop
           ///< tables on other topologies); fast, congestion-oblivious
    Maze,  ///< congestion-aware Dijkstra (the detailed-mapper default)
};

[[nodiscard]] RoutingAlgorithm parse_routing_algorithm(const std::string& name);
[[nodiscard]] std::string routing_algorithm_name(RoutingAlgorithm algorithm);

class MazeRouter {
public:
    /// \param margin  extra ULBs around the src/dst bounding box (grid) or
    ///                extra detour hops (other topologies) the search may
    ///                use.
    MazeRouter(const fabric::Topology& topology, int margin = 4);

    /// Find a route from \p from to \p to departing at \p depart_us, using
    /// \p channels reservation counts as congestion pressure.  Returns the
    /// segment sequence (empty when from == to).
    [[nodiscard]] std::vector<fabric::SegmentId> route(
        fabric::UlbCoord from, fabric::UlbCoord to, double depart_us,
        const ChannelReservations& channels, int nc, double t_move_us) const;

private:
    const fabric::Topology& topology_;
    int margin_;
    // Scratch buffers sized to the fabric, reused across calls to avoid
    // per-route allocation (mutable: route() is logically const).
    mutable std::vector<double> cost_;
    mutable std::vector<fabric::SegmentId> via_segment_;
    mutable std::vector<fabric::UlbId> via_node_;
    mutable std::vector<std::uint32_t> stamp_;
    mutable std::uint32_t current_stamp_ = 0;
};

} // namespace leqa::qspr
