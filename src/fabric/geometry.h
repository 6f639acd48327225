/// \file geometry.h
/// \brief ULB coordinates and ids of the tiled quantum architecture (paper
///        Figure 1), and the fabric handle initial placement takes.
///
/// The fabric is a `width x height` coordinate space of ULBs separated by
/// routing channels.  We model each channel as the set of unit *segments*
/// between adjacent ULBs; quantum crossbars sit at the junctions and are
/// absorbed into the segment hop cost.  `fabric::Topology` (topology.h)
/// answers every question about the fabric: adjacency, hop metric, routes,
/// rings, midpoints and coverage.
///
/// `FabricGeometry` only wraps a shared topology.  It stays as the argument
/// type of `qspr::initial_placement` because perfbench builds one for that
/// call; everything else queries the `Topology` directly.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

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

/// A non-null handle to a topology (grid, torus, line, ...).
class FabricGeometry {
public:
    explicit FabricGeometry(std::shared_ptr<const Topology> topology);

    [[nodiscard]] const Topology& topology() const { return *topology_; }

private:
    std::shared_ptr<const Topology> topology_;
};

} // namespace leqa::fabric
