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
/// Algorithm 1 reads nothing else, so the class keeps M_i, W_i and |E|
/// only: no edge list, no adjacency.  One counting algorithm (from_pairs)
/// fills them from interacting endpoint pairs, a circuit's gates or the
/// QODG's tape (qodg::Qodg::interaction_graph), in O(pairs + Q) time and
/// memory.
///
/// The builder accepts any circuit; gates touching two qubits contribute
/// weight 1 to their pair.  Gates touching three or more qubits (permitted
/// only pre-FT-synthesis) contribute weight 1 to every qubit pair they
/// touch, a conservative generalization documented in DESIGN.md; FT
/// circuits — the paper's actual input — contain only CNOT as a multi-qubit
/// gate, where both definitions coincide.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "util/error.h"

namespace leqa::iig {

class Iig {
public:
    /// Build from a circuit (typically the FT-synthesized netlist).
    explicit Iig(const circuit::Circuit& circ);

    /// Build from endpoint pairs, each adding weight 1 in either orientation.
    /// Throws InputError for an endpoint out of range or a self loop.
    Iig(std::size_t num_qubits,
        std::span<const std::pair<circuit::Qubit, circuit::Qubit>> pairs);

    /// The one counting algorithm, over any source of pairs:
    /// `for_each_pair(visit)` calls `visit(a, b)` once per interacting
    /// pair, in either orientation.  It runs twice and must yield the same
    /// pairs both times.  The first run checks each pair (InputError for an
    /// endpoint out of range or a self loop), adds 1 to W_a and W_b, and
    /// sizes the bucket of the lower endpoint; the second scatters each
    /// higher endpoint into that bucket.  A walk over the buckets in order
    /// then counts M_i and |E| (count_partners).
    template <class ForEachPair>
    [[nodiscard]] static Iig from_pairs(std::size_t num_qubits,
                                        const ForEachPair& for_each_pair);

    /// Number of logical qubits Q.
    [[nodiscard]] std::size_t num_qubits() const { return degree_.size(); }

    /// Number of distinct interacting pairs |E|.
    [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

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

private:
    explicit Iig(std::size_t num_qubits)
        : degree_(num_qubits, 0), adjacent_weight_(num_qubits, 0) {}

    /// M_i and |E| from the buckets: bucket i, partners[start[i],
    /// start[i + 1]), holds the higher endpoint of every pair whose lower
    /// one is i, so each distinct pair lies in one bucket.
    void count_partners(std::span<const std::size_t> start,
                        std::span<const circuit::Qubit> partners);

    std::vector<std::uint32_t> degree_;          ///< M_i
    std::vector<std::uint64_t> adjacent_weight_; ///< W_i
    std::size_t num_edges_ = 0;                  ///< |E|
};

template <class ForEachPair>
Iig Iig::from_pairs(std::size_t num_qubits, const ForEachPair& for_each_pair) {
    Iig iig(num_qubits);
    std::vector<std::size_t> start(num_qubits + 1, 0);
    for_each_pair([&](circuit::Qubit a, circuit::Qubit b) {
        LEQA_REQUIRE(a < num_qubits && b < num_qubits, "edge endpoint out of range");
        LEQA_REQUIRE(a != b, "self loops are not representable");
        ++iig.adjacent_weight_[a];
        ++iig.adjacent_weight_[b];
        ++start[std::min(a, b) + 1];
    });
    for (std::size_t q = 0; q < num_qubits; ++q) start[q + 1] += start[q];
    std::vector<circuit::Qubit> partners(start.back());
    std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
    for_each_pair([&](circuit::Qubit a, circuit::Qubit b) {
        partners[cursor[std::min(a, b)]++] = std::max(a, b);
    });
    iig.count_partners(start, partners);
    return iig;
}

} // namespace leqa::iig
