#include "graph/weighted.h"

#include <algorithm>

#include "util/error.h"

namespace leqa::graph {

WeightedUndigraph WeightedUndigraph::from_pairs(
    std::size_t num_nodes, std::span<const std::pair<NodeId, NodeId>> pairs) {
    WeightedUndigraph g;

    // Sort the canonical (lo, hi) pairs with two stable counting passes
    // over node ids -- by hi, then by lo -- so identical pairs become
    // adjacent runs whose lengths are the edge weights.  The first pass
    // keeps only lo (hi is the bucket); the second scatters hi into lo
    // buckets, visiting hi in ascending order.
    std::vector<std::uint32_t> hi_start(num_nodes + 1, 0);
    for (const auto& [a, b] : pairs) {
        LEQA_REQUIRE(a < num_nodes && b < num_nodes, "edge endpoint out of range");
        LEQA_REQUIRE(a != b, "self loops are not representable");
        ++hi_start[std::max(a, b) + 1];
    }
    for (std::size_t u = 0; u < num_nodes; ++u) hi_start[u + 1] += hi_start[u];
    std::vector<NodeId> lo_by_hi(pairs.size());
    {
        std::vector<std::uint32_t> cursor(hi_start.begin(), hi_start.end() - 1);
        for (const auto& [a, b] : pairs) lo_by_hi[cursor[std::max(a, b)]++] = std::min(a, b);
    }

    std::vector<std::uint32_t> lo_start(num_nodes + 1, 0);
    for (const NodeId lo : lo_by_hi) ++lo_start[lo + 1];
    for (std::size_t u = 0; u < num_nodes; ++u) lo_start[u + 1] += lo_start[u];
    std::vector<NodeId> hi_by_lo(pairs.size());
    {
        std::vector<std::uint32_t> cursor(lo_start.begin(), lo_start.end() - 1);
        for (NodeId hi = 0; hi < num_nodes; ++hi) {
            for (std::uint32_t k = hi_start[hi]; k < hi_start[hi + 1]; ++k) {
                hi_by_lo[cursor[lo_by_hi[k]]++] = hi;
            }
        }
    }

    g.offsets_.assign(num_nodes + 1, 0);
    g.adjacent_weight_.assign(num_nodes, 0);

    // Run-length encode into the unique edge list, accumulating per-node
    // degree (into offsets_, shifted by one) and adjacent weight as we go.
    for (NodeId i = 0; i < num_nodes; ++i) {
        for (std::uint32_t run = lo_start[i]; run < lo_start[i + 1];) {
            const NodeId j = hi_by_lo[run];
            std::uint32_t end = run + 1;
            while (end < lo_start[i + 1] && hi_by_lo[end] == j) ++end;
            const auto weight = static_cast<std::uint64_t>(end - run);
            g.edges_.push_back(Edge{i, j, weight});
            ++g.offsets_[i + 1];
            ++g.offsets_[j + 1];
            g.adjacent_weight_[i] += weight;
            g.adjacent_weight_[j] += weight;
            run = end;
        }
    }

    for (std::size_t u = 0; u < num_nodes; ++u) g.offsets_[u + 1] += g.offsets_[u];

    // Scatter the symmetric adjacency.  Edges are sorted by (i, j), so each
    // node's neighbor slice comes out ascending without a second sort: the
    // i-side fills in j-ascending order, and the j-side entries (neighbors
    // below the node) are appended before any i-side ones (neighbors above).
    g.neighbors_.resize(2 * g.edges_.size());
    g.weights_.resize(2 * g.edges_.size());
    std::vector<std::uint32_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
    for (const Edge& e : g.edges_) {
        g.neighbors_[cursor[e.i]] = e.j;
        g.weights_[cursor[e.i]++] = e.weight;
        g.neighbors_[cursor[e.j]] = e.i;
        g.weights_[cursor[e.j]++] = e.weight;
    }
    return g;
}

std::uint64_t WeightedUndigraph::weight_between(NodeId a, NodeId b) const {
    LEQA_REQUIRE(a < num_nodes() && b < num_nodes(), "node out of range");
    LEQA_REQUIRE(a != b, "self loops are not representable");
    const auto hood = neighbors(a);
    const auto it = std::lower_bound(hood.begin(), hood.end(), b);
    if (it == hood.end() || *it != b) return 0;
    return neighbor_weights(a)[static_cast<std::size_t>(it - hood.begin())];
}

} // namespace leqa::graph
