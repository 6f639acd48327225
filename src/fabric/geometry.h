/// \file geometry.h
/// \brief Fabric geometry of the tiled quantum architecture (paper Figure 1).
///
/// The fabric is a `width x height` coordinate space of ULBs separated by
/// routing channels.  We model each channel as the set of unit *segments*
/// between adjacent ULBs; quantum crossbars sit at the junctions and are
/// absorbed into the segment hop cost.
///
/// `FabricGeometry` is a coordinate-level view over a `fabric::Topology`
/// (see topology.h): which ULBs are adjacent, what the hop metric is, and
/// what a shortest route looks like all come from the topology's CSR
/// adjacency; `make_topology(TopologyKind::Grid, w, h)` gives the paper's
/// open-boundary grid.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace leqa::fabric {

class Topology;

/// ULB coordinates (x column, y row), zero-based.
struct UlbCoord {
    int x = 0;
    int y = 0;

    [[nodiscard]] bool operator==(const UlbCoord&) const = default;
    [[nodiscard]] std::string to_string() const;
};

/// Dense ULB index.
using UlbId = std::int32_t;

/// Dense channel-segment index.
using SegmentId = std::int32_t;

class FabricGeometry {
public:
    /// A view over a topology (grid, torus, line, ...).
    explicit FabricGeometry(std::shared_ptr<const Topology> topology);

    [[nodiscard]] const Topology& topology() const { return *topology_; }
    [[nodiscard]] const std::shared_ptr<const Topology>& topology_ptr() const {
        return topology_;
    }

    [[nodiscard]] int width() const;
    [[nodiscard]] int height() const;
    [[nodiscard]] std::size_t num_ulbs() const;
    /// Number of channel segments (topology-dependent; on a grid:
    /// (width-1)*height horizontal + width*(height-1) vertical).
    [[nodiscard]] std::size_t num_segments() const;

    [[nodiscard]] bool in_bounds(UlbCoord c) const;
    [[nodiscard]] UlbId ulb_id(UlbCoord c) const;
    [[nodiscard]] UlbCoord ulb_coord(UlbId id) const;

    /// Segment between two adjacent ULBs; throws InputError if not adjacent.
    [[nodiscard]] SegmentId segment_between(UlbCoord a, UlbCoord b) const;

    /// Hop count of a shortest route between ULBs (Manhattan distance on a
    /// grid; wrap-aware on a torus).
    [[nodiscard]] int manhattan(UlbCoord a, UlbCoord b) const;

    /// Deterministic shortest route a -> b as a segment sequence (empty
    /// when a == b).  Dimension-ordered XY on a grid; BFS next-hop tables
    /// on other topologies.
    [[nodiscard]] std::vector<SegmentId> route(UlbCoord a, UlbCoord b) const;

    /// ULBs at ring radius r around center in deterministic order; r = 0
    /// yields {center}.  Rings for r = 0..max(width, height) cover every
    /// ULB exactly once.
    [[nodiscard]] std::vector<UlbCoord> ring(UlbCoord center, int r) const;

    /// The topology-adjacent neighbors of a ULB (ascending by ULB id).
    [[nodiscard]] std::vector<UlbCoord> neighbors(UlbCoord c) const;

    /// A ULB "between" two coordinates (componentwise average on a grid).
    [[nodiscard]] UlbCoord midpoint(UlbCoord a, UlbCoord b) const;

private:
    std::shared_ptr<const Topology> topology_;
};

} // namespace leqa::fabric
