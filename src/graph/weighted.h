/// \file weighted.h
/// \brief Flat undirected weighted graph (CSR adjacency, no hash maps).
///
/// Backing store of the interaction intensity graph: endpoint pairs are
/// collected, counting-sorted by node id, and run-length encoded into a
/// unique edge list, from
/// which the symmetric CSR adjacency and the per-node statistics (degree,
/// adjacent weight) fall out in one pass.  Lookups are binary searches over
/// a node's sorted neighbor slice; no per-edge heap allocations, no
/// unordered_map.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.h"

namespace leqa::graph {

class WeightedUndigraph {
public:
    /// One undirected edge (i < j).
    struct Edge {
        NodeId i = 0;
        NodeId j = 0;
        std::uint64_t weight = 0;
    };

    WeightedUndigraph() = default;

    /// Build from endpoint pairs; repeated pairs accumulate weight 1 each.
    /// Orientation is ignored ((a, b) == (b, a)); self loops are rejected.
    [[nodiscard]] static WeightedUndigraph from_pairs(
        std::size_t num_nodes, std::span<const std::pair<NodeId, NodeId>> pairs);

    [[nodiscard]] std::size_t num_nodes() const {
        return offsets_.empty() ? 0 : offsets_.size() - 1;
    }
    /// Number of distinct undirected edges.
    [[nodiscard]] std::size_t num_edges() const { return edges_.size(); }

    /// Number of distinct neighbors of `u`.
    [[nodiscard]] std::size_t degree(NodeId u) const {
        return offsets_[u + 1] - offsets_[u];
    }

    /// Total weight of edges adjacent to `u`.
    [[nodiscard]] std::uint64_t adjacent_weight(NodeId u) const {
        return adjacent_weight_[u];
    }

    /// Weight between `a` and `b` (0 if absent); O(log degree).
    [[nodiscard]] std::uint64_t weight_between(NodeId a, NodeId b) const;

    /// Neighbors of `u`, ascending; index-aligned with neighbor_weights(u).
    [[nodiscard]] std::span<const NodeId> neighbors(NodeId u) const {
        return {neighbors_.data() + offsets_[u], neighbors_.data() + offsets_[u + 1]};
    }
    [[nodiscard]] std::span<const std::uint64_t> neighbor_weights(NodeId u) const {
        return {weights_.data() + offsets_[u], weights_.data() + offsets_[u + 1]};
    }

    /// All distinct edges, sorted by (i, j).
    [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

private:
    std::vector<std::uint32_t> offsets_;        ///< size num_nodes + 1
    std::vector<NodeId> neighbors_;             ///< symmetric adjacency
    std::vector<std::uint64_t> weights_;        ///< aligned with neighbors_
    std::vector<std::uint64_t> adjacent_weight_; ///< per node
    std::vector<Edge> edges_;                   ///< unique, sorted by (i, j)
};

} // namespace leqa::graph
