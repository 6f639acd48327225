#include "iig/iig.h"

#include <sstream>
#include <utility>

#include "util/error.h"

namespace leqa::iig {

Iig::Iig(const circuit::Circuit& circ) {
    // One pass over the gates collects the interacting endpoint pairs; the
    // flat graph build then produces the unique edge list and the per-qubit
    // M_i / W_i arrays in two counting passes + one scan.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
    pairs.reserve(circ.size());
    for (const circuit::Gate& gate : circ.gates()) {
        const std::span<const circuit::Qubit> qubits = gate.qubits();
        for (std::size_t a = 0; a < qubits.size(); ++a) {
            for (std::size_t b = a + 1; b < qubits.size(); ++b) {
                pairs.emplace_back(qubits[a], qubits[b]);
            }
        }
    }
    graph_ = graph::WeightedUndigraph::from_pairs(circ.num_qubits(), pairs);
}

std::size_t Iig::degree(circuit::Qubit q) const {
    LEQA_REQUIRE(q < num_qubits(), "qubit index out of range");
    return graph_.degree(q);
}

std::uint64_t Iig::adjacent_weight(circuit::Qubit q) const {
    LEQA_REQUIRE(q < num_qubits(), "qubit index out of range");
    return graph_.adjacent_weight(q);
}

double Iig::zone_area(circuit::Qubit q) const {
    // Eq. 6: B_i = sqrt(M_i + 1) * sqrt(M_i + 1) = M_i + 1.
    return static_cast<double>(degree(q)) + 1.0;
}

double Iig::average_zone_area() const {
    // Eq. 7: B = sum_i W_i B_i / sum_i W_i.
    double numerator = 0.0;
    double denominator = 0.0;
    for (circuit::Qubit q = 0; q < num_qubits(); ++q) {
        const auto w = static_cast<double>(graph_.adjacent_weight(q));
        numerator += w * zone_area(q);
        denominator += w;
    }
    if (denominator == 0.0) return 1.0; // no interactions: single-ULB zones
    return numerator / denominator;
}

std::uint64_t Iig::total_adjacent_weight() const {
    std::uint64_t total = 0;
    for (circuit::Qubit q = 0; q < num_qubits(); ++q) {
        total += graph_.adjacent_weight(q);
    }
    return total;
}

std::uint64_t Iig::edge_weight(circuit::Qubit a, circuit::Qubit b) const {
    LEQA_REQUIRE(a < num_qubits() && b < num_qubits(), "qubit index out of range");
    LEQA_REQUIRE(a != b, "IIG has no self loops");
    return graph_.weight_between(a, b);
}

std::string Iig::to_dot(const circuit::Circuit& circ) const {
    std::ostringstream out;
    out << "graph iig {\n";
    for (circuit::Qubit q = 0; q < num_qubits(); ++q) {
        out << "  n" << q << " [label=\"" << circ.qubit_name(q) << "\"];\n";
    }
    for (const Edge& e : edges()) {
        out << "  n" << e.i << " -- n" << e.j << " [label=\"" << e.weight << "\"];\n";
    }
    out << "}\n";
    return out.str();
}

} // namespace leqa::iig
