#include "qspr/placement.h"

#include <cmath>

#include "fabric/topology.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/strings.h"

namespace leqa::qspr {

PlacementStrategy parse_placement_strategy(const std::string& name) {
    const std::string lowered = util::to_lower(name);
    if (lowered == "centered" || lowered == "centered-block") {
        return PlacementStrategy::CenteredBlock;
    }
    if (lowered == "row-major" || lowered == "rowmajor") return PlacementStrategy::RowMajor;
    if (lowered == "random") return PlacementStrategy::Random;
    throw util::InputError("unknown placement strategy: " + name);
}

std::string placement_strategy_name(PlacementStrategy strategy) {
    switch (strategy) {
        case PlacementStrategy::CenteredBlock: return "centered-block";
        case PlacementStrategy::RowMajor: return "row-major";
        case PlacementStrategy::Random: return "random";
    }
    return "?";
}

std::vector<fabric::UlbId> initial_placement(const fabric::FabricGeometry& geometry,
                                             std::size_t num_qubits,
                                             PlacementStrategy strategy,
                                             std::uint64_t seed) {
    const fabric::Topology& topology = geometry.topology();
    LEQA_REQUIRE(num_qubits <= topology.num_ulbs(),
                 "fabric too small: " + std::to_string(num_qubits) + " qubits on " +
                     std::to_string(topology.num_ulbs()) + " ULBs");
    std::vector<fabric::UlbId> homes;
    homes.reserve(num_qubits);

    switch (strategy) {
        case PlacementStrategy::RowMajor: {
            for (std::size_t q = 0; q < num_qubits; ++q) {
                homes.push_back(static_cast<fabric::UlbId>(q));
            }
            break;
        }
        case PlacementStrategy::CenteredBlock: {
            // Block of ~ceil(sqrt(n)) columns, centered; widened when the
            // fabric is shorter than the square block would be.
            const int side =
                std::max(1, static_cast<int>(std::ceil(std::sqrt(static_cast<double>(num_qubits)))));
            const int min_w =
                (static_cast<int>(num_qubits) + topology.height() - 1) / topology.height();
            const int block_w = std::min(std::max(side, min_w), topology.width());
            const int block_h =
                (static_cast<int>(num_qubits) + block_w - 1) / block_w;
            LEQA_CHECK(block_h <= topology.height(),
                       "centered block does not fit the fabric");
            const int x0 = (topology.width() - block_w) / 2;
            const int y0 = (topology.height() - block_h) / 2;
            for (std::size_t q = 0; q < num_qubits; ++q) {
                const int dx = static_cast<int>(q) % block_w;
                const int dy = static_cast<int>(q) / block_w;
                homes.push_back(topology.ulb_id({x0 + dx, y0 + dy}));
            }
            break;
        }
        case PlacementStrategy::Random: {
            util::Rng rng(seed);
            const auto picks =
                rng.sample_without_replacement(topology.num_ulbs(), num_qubits);
            for (const auto pick : picks) {
                homes.push_back(static_cast<fabric::UlbId>(pick));
            }
            break;
        }
    }
    return homes;
}

} // namespace leqa::qspr
