/// \file lane_reference.h
/// \brief Random FT circuits, and the push-based reference the lane-blocked
///        critical path (`Qodg::longest_path_lanes` +
///        `critical_census_lanes`) must reproduce bit for bit.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "qodg/qodg.h"
#include "util/rng.h"

namespace leqa::test_support {

using DelayTable = std::array<double, circuit::kGateKindCount>;

/// A random FT circuit: H, T, X and (half the time) CNOT on random qubits.
inline circuit::Circuit random_ft_circuit(std::size_t qubits, std::size_t gates,
                                          std::uint64_t seed) {
    util::Rng rng(seed);
    circuit::Circuit circ(qubits);
    for (std::size_t g = 0; g < gates; ++g) {
        const auto picks = rng.sample_without_replacement(qubits, 2);
        const auto a = static_cast<circuit::Qubit>(picks[0]);
        switch (rng.index(5)) {
            case 0: circ.h(a); break;
            case 1: circ.t(a); break;
            case 2: circ.x(a); break;
            default: circ.cnot(a, static_cast<circuit::Qubit>(picks[1])); break;
        }
    }
    return circ;
}

/// Run `tables` through the lane kernel and compare every lane with
/// `longest_path(node_delays(table))` and `census(critical_path(...))`:
/// the length bit for bit, the census count for count.  Returns the first
/// mismatch, or an empty string.
inline std::string lane_mismatch(const qodg::Qodg& graph,
                                 std::span<const DelayTable> tables) {
    qodg::LongestPathLanes lanes;
    graph.longest_path_lanes(tables, lanes);
    std::vector<qodg::PathCensus> censuses(tables.size());
    graph.critical_census_lanes(lanes, censuses);
    for (std::size_t lane = 0; lane < tables.size(); ++lane) {
        const qodg::LongestPath lp = graph.longest_path(graph.node_delays(tables[lane]));
        const qodg::PathCensus expected = graph.census(graph.critical_path(lp));
        std::ostringstream what;
        if (std::bit_cast<std::uint64_t>(lanes.length[lane]) !=
            std::bit_cast<std::uint64_t>(lp.length)) {
            what << "length " << lanes.length[lane] << " vs " << lp.length;
        } else if (censuses[lane].by_kind != expected.by_kind ||
                   censuses[lane].total_ops != expected.total_ops) {
            what << "census of " << censuses[lane].total_ops << " ops vs "
                 << expected.total_ops;
        } else {
            continue;
        }
        return "lane " + std::to_string(lane) + " of " + std::to_string(tables.size()) +
               ": " + what.str();
    }
    return {};
}

} // namespace leqa::test_support
