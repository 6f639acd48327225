#include "fabric/geometry.h"

#include "fabric/topology.h"
#include "util/error.h"

namespace leqa::fabric {

std::string UlbCoord::to_string() const {
    return "(" + std::to_string(x) + "," + std::to_string(y) + ")";
}

FabricGeometry::FabricGeometry(std::shared_ptr<const Topology> topology)
    : topology_(std::move(topology)) {
    LEQA_REQUIRE(topology_ != nullptr, "fabric geometry needs a topology");
}

int FabricGeometry::width() const { return topology_->width(); }

int FabricGeometry::height() const { return topology_->height(); }

std::size_t FabricGeometry::num_ulbs() const { return topology_->num_ulbs(); }

std::size_t FabricGeometry::num_segments() const { return topology_->num_segments(); }

bool FabricGeometry::in_bounds(UlbCoord c) const { return topology_->in_bounds(c); }

UlbId FabricGeometry::ulb_id(UlbCoord c) const { return topology_->ulb_id(c); }

UlbCoord FabricGeometry::ulb_coord(UlbId id) const { return topology_->ulb_coord(id); }

SegmentId FabricGeometry::segment_between(UlbCoord a, UlbCoord b) const {
    return topology_->segment_between(topology_->ulb_id(a), topology_->ulb_id(b));
}

int FabricGeometry::manhattan(UlbCoord a, UlbCoord b) const {
    return topology_->distance(a, b);
}

std::vector<SegmentId> FabricGeometry::route(UlbCoord a, UlbCoord b) const {
    LEQA_REQUIRE(in_bounds(a) && in_bounds(b), "ULB coordinate out of bounds");
    return topology_->route(a, b);
}

std::vector<UlbCoord> FabricGeometry::ring(UlbCoord center, int r) const {
    return topology_->ring(center, r);
}

std::vector<UlbCoord> FabricGeometry::neighbors(UlbCoord c) const {
    std::vector<UlbCoord> out;
    for (const auto id : topology_->neighbors(topology_->ulb_id(c))) {
        out.push_back(topology_->ulb_coord(static_cast<UlbId>(id)));
    }
    return out;
}

UlbCoord FabricGeometry::midpoint(UlbCoord a, UlbCoord b) const {
    return topology_->midpoint(a, b);
}

} // namespace leqa::fabric
