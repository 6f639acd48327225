#include "iig/iig.h"

#include <algorithm>
#include <sstream>

#include "util/error.h"

namespace leqa::iig {

namespace {

/// The interacting endpoint pairs of a circuit's gates, in one pass.
std::vector<std::pair<circuit::Qubit, circuit::Qubit>> interacting_pairs(
    const circuit::Circuit& circ) {
    std::vector<std::pair<circuit::Qubit, circuit::Qubit>> pairs;
    pairs.reserve(circ.size());
    for (const circuit::Gate& gate : circ.gates()) {
        const std::span<const circuit::Qubit> qubits = gate.qubits();
        for (std::size_t a = 0; a < qubits.size(); ++a) {
            for (std::size_t b = a + 1; b < qubits.size(); ++b) {
                pairs.emplace_back(qubits[a], qubits[b]);
            }
        }
    }
    return pairs;
}

} // namespace

Iig::Iig(const circuit::Circuit& circ)
    : Iig(circ.num_qubits(), interacting_pairs(circ)) {}

Iig::Iig(std::size_t num_qubits,
         std::span<const std::pair<circuit::Qubit, circuit::Qubit>> pairs)
    : degree_(num_qubits, 0), adjacent_weight_(num_qubits, 0) {
    // Sort the canonical (lo, hi) pairs with two stable counting passes
    // over qubit ids -- by hi, then by lo -- so identical pairs become
    // adjacent runs whose lengths are the edge weights.  The first pass
    // keeps only lo (hi is the bucket); the second scatters hi into lo
    // buckets, visiting hi in ascending order.
    std::vector<std::uint32_t> hi_start(num_qubits + 1, 0);
    for (const auto& [a, b] : pairs) {
        LEQA_REQUIRE(a < num_qubits && b < num_qubits, "edge endpoint out of range");
        LEQA_REQUIRE(a != b, "self loops are not representable");
        ++hi_start[std::max(a, b) + 1];
    }
    for (std::size_t q = 0; q < num_qubits; ++q) hi_start[q + 1] += hi_start[q];
    std::vector<circuit::Qubit> lo_by_hi(pairs.size());
    {
        std::vector<std::uint32_t> cursor(hi_start.begin(), hi_start.end() - 1);
        for (const auto& [a, b] : pairs) lo_by_hi[cursor[std::max(a, b)]++] = std::min(a, b);
    }

    std::vector<std::uint32_t> lo_start(num_qubits + 1, 0);
    for (const circuit::Qubit lo : lo_by_hi) ++lo_start[lo + 1];
    for (std::size_t q = 0; q < num_qubits; ++q) lo_start[q + 1] += lo_start[q];
    std::vector<circuit::Qubit> hi_by_lo(pairs.size());
    {
        std::vector<std::uint32_t> cursor(lo_start.begin(), lo_start.end() - 1);
        for (circuit::Qubit hi = 0; hi < num_qubits; ++hi) {
            for (std::uint32_t k = hi_start[hi]; k < hi_start[hi + 1]; ++k) {
                hi_by_lo[cursor[lo_by_hi[k]]++] = hi;
            }
        }
    }

    // Run-length encode into the unique edge list, counting M_i and W_i.
    for (circuit::Qubit i = 0; i < num_qubits; ++i) {
        for (std::uint32_t run = lo_start[i]; run < lo_start[i + 1];) {
            const circuit::Qubit j = hi_by_lo[run];
            std::uint32_t end = run + 1;
            while (end < lo_start[i + 1] && hi_by_lo[end] == j) ++end;
            const auto weight = static_cast<std::uint64_t>(end - run);
            edges_.push_back(Edge{i, j, weight});
            ++degree_[i];
            ++degree_[j];
            adjacent_weight_[i] += weight;
            adjacent_weight_[j] += weight;
            run = end;
        }
    }
}

std::size_t Iig::degree(circuit::Qubit q) const {
    LEQA_REQUIRE(q < num_qubits(), "qubit index out of range");
    return degree_[q];
}

std::uint64_t Iig::adjacent_weight(circuit::Qubit q) const {
    LEQA_REQUIRE(q < num_qubits(), "qubit index out of range");
    return adjacent_weight_[q];
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
        const auto w = static_cast<double>(adjacent_weight_[q]);
        numerator += w * zone_area(q);
        denominator += w;
    }
    if (denominator == 0.0) return 1.0; // no interactions: single-ULB zones
    return numerator / denominator;
}

std::uint64_t Iig::total_adjacent_weight() const {
    std::uint64_t total = 0;
    for (const std::uint64_t w : adjacent_weight_) total += w;
    return total;
}

std::uint64_t Iig::edge_weight(circuit::Qubit a, circuit::Qubit b) const {
    LEQA_REQUIRE(a < num_qubits() && b < num_qubits(), "qubit index out of range");
    LEQA_REQUIRE(a != b, "IIG has no self loops");
    const circuit::Qubit i = std::min(a, b);
    const circuit::Qubit j = std::max(a, b);
    const auto before = [](const Edge& e, std::pair<circuit::Qubit, circuit::Qubit> key) {
        return std::pair(e.i, e.j) < key;
    };
    const auto it = std::lower_bound(edges_.begin(), edges_.end(), std::pair(i, j), before);
    return it != edges_.end() && it->i == i && it->j == j ? it->weight : 0;
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
