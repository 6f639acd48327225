/// \file iig.h
/// \brief The Interaction Intensity Graph IIG(V,E) of the paper (§3.1).
///
/// Nodes are logical qubits.  An undirected edge e_ij with weight w(e_ij)
/// counts the number of two-qubit operations between qubits i and j.  There
/// are no self loops (one-qubit operations add no edges).  From the IIG the
/// paper derives, per qubit i:
///   - M_i    = deg(n_i), the number of distinct interaction partners;
///   - W_i    = sum of adjacent edge weights (interaction intensity);
///   - B_i    = (sqrt(M_i + 1))^2 = M_i + 1, the presence-zone area (Eq. 6);
/// and the fabric-wide average presence-zone area B as the W_i-weighted
/// mean of B_i (Eq. 7).
///
/// It keeps the sorted unique edge list and the M_i and W_i arrays, counted
/// from interacting endpoint pairs (a circuit's gates, or the QODG's tape
/// via qodg::Qodg::interaction_graph): no adjacency, no hash map.
///
/// The builder accepts any circuit; gates touching two qubits contribute
/// weight 1 to their pair.  Gates touching three or more qubits (permitted
/// only pre-FT-synthesis) contribute weight 1 to every qubit pair they
/// touch, a conservative generalization documented in DESIGN.md; FT
/// circuits — the paper's actual input — contain only CNOT as a multi-qubit
/// gate, where both definitions coincide.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.h"

namespace leqa::iig {

/// An undirected weighted edge (i < j).
struct Edge {
    circuit::Qubit i = 0;
    circuit::Qubit j = 0;
    std::uint64_t weight = 0;
};

class Iig {
public:
    /// Build from a circuit (typically the FT-synthesized netlist).
    explicit Iig(const circuit::Circuit& circ);

    /// Build from endpoint pairs, each adding weight 1 in either orientation.
    /// Throws InputError for an endpoint out of range or a self loop.
    Iig(std::size_t num_qubits,
        std::span<const std::pair<circuit::Qubit, circuit::Qubit>> pairs);

    /// Number of logical qubits Q.
    [[nodiscard]] std::size_t num_qubits() const { return degree_.size(); }

    /// Number of distinct interacting pairs |E|.
    [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

    /// M_i: number of distinct neighbors of qubit i.
    [[nodiscard]] std::size_t degree(circuit::Qubit q) const;

    /// W_i: total weight of edges adjacent to qubit i.
    [[nodiscard]] std::uint64_t adjacent_weight(circuit::Qubit q) const;

    /// B_i = M_i + 1 (presence-zone area, Eq. 6).
    [[nodiscard]] double zone_area(circuit::Qubit q) const;

    /// B: the W_i-weighted average of B_i over all qubits (Eq. 7).
    /// Returns 1.0 (a single-ULB zone) when the circuit has no two-qubit
    /// interactions at all.
    [[nodiscard]] double average_zone_area() const;

    /// Sum over all i of W_i (= 2 * total edge weight).
    [[nodiscard]] std::uint64_t total_adjacent_weight() const;

    /// Weight of the edge between a and b (0 if absent); O(log |E|).
    [[nodiscard]] std::uint64_t edge_weight(circuit::Qubit a, circuit::Qubit b) const;

    /// All edges, sorted by (i, j).
    [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

    /// Graphviz DOT rendering (small graphs).
    [[nodiscard]] std::string to_dot(const circuit::Circuit& circ) const;

private:
    std::vector<Edge> edges_;                    ///< unique, sorted by (i, j)
    std::vector<std::uint32_t> degree_;          ///< M_i
    std::vector<std::uint64_t> adjacent_weight_; ///< W_i
};

} // namespace leqa::iig
