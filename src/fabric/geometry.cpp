#include "fabric/geometry.h"

#include "util/error.h"

namespace leqa::fabric {

std::string UlbCoord::to_string() const {
    return "(" + std::to_string(x) + "," + std::to_string(y) + ")";
}

FabricGeometry::FabricGeometry(std::shared_ptr<const Topology> topology)
    : topology_(std::move(topology)) {
    LEQA_REQUIRE(topology_ != nullptr, "fabric geometry needs a topology");
}

} // namespace leqa::fabric
