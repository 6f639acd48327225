#include "graph/csr.h"

#include <algorithm>
#include <string>

#include "util/error.h"

namespace leqa::graph {

std::vector<std::uint32_t> CsrDigraph::in_degrees() const {
    std::vector<std::uint32_t> degrees(num_nodes(), 0);
    for (const NodeId v : targets_) ++degrees[v];
    return degrees;
}

CsrDigraph::CsrDigraph(std::vector<std::uint32_t> offsets, std::vector<NodeId> targets,
                       bool topological)
    : offsets_(std::move(offsets)), targets_(std::move(targets)), topological_(topological) {
    LEQA_DCHECK_OK(validate_csr(offsets_, targets_, topological_, /*acyclic=*/false));
}

CsrDigraph CsrDigraph::reversed() const {
    CsrDigraph rev;
    const std::size_t n = num_nodes();
    rev.offsets_.assign(n + 1, 0);
    for (const NodeId v : targets_) ++rev.offsets_[v + 1];
    for (std::size_t v = 0; v < n; ++v) rev.offsets_[v + 1] += rev.offsets_[v];
    rev.targets_.resize(targets_.size());
    std::vector<std::uint32_t> cursor(rev.offsets_.begin(), rev.offsets_.end() - 1);
    // Scanning sources in ascending order keeps each reversed successor
    // list (= predecessor list of the original) ascending by id, which the
    // lane-path recovery in qodg relies on for its tie-break.
    bool descending = true; // every edge u -> v has v < u
    for (NodeId u = 0; u < n; ++u) {
        for (const NodeId v : successors(u)) {
            rev.targets_[cursor[v]++] = u;
            descending = descending && v < u;
        }
    }
    rev.topological_ = descending;
    return rev;
}

LongestPathResult longest_path(const CsrDigraph& g, std::span<const double> delays,
                               NodeId source) {
    LEQA_REQUIRE(g.topologically_ordered(),
                 "longest_path requires a topologically ordered graph");
    LEQA_REQUIRE(delays.size() == g.num_nodes(),
                 "delay vector size must equal node count");
    LEQA_REQUIRE(source < g.num_nodes(), "source out of range");

    LongestPathResult lp;
    const std::size_t n = g.num_nodes();
    lp.distance.assign(n, -1.0);
    lp.predecessor.assign(n, source);
    lp.distance[source] = delays[source];

    for (NodeId u = source; u < n; ++u) {
        const double base = lp.distance[u];
        if (base < 0.0) continue; // unreachable from source
        for (const NodeId v : g.successors(u)) {
            const double candidate = base + delays[v];
            if (candidate > lp.distance[v]) {
                lp.distance[v] = candidate;
                lp.predecessor[v] = u;
            }
        }
    }
    return lp;
}

std::vector<NodeId> extract_path(std::span<const double> distance,
                                 std::span<const NodeId> predecessor, NodeId source,
                                 NodeId sink) {
    LEQA_REQUIRE(sink < distance.size() && source < distance.size(),
                 "path endpoint out of range");
    LEQA_REQUIRE(distance[sink] >= 0.0, "sink unreachable from source");
    std::vector<NodeId> path;
    NodeId cursor = sink;
    path.push_back(cursor);
    while (cursor != source) {
        cursor = predecessor[cursor];
        path.push_back(cursor);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

std::string validate_csr(std::span<const std::uint32_t> offsets,
                         std::span<const NodeId> targets, bool topological,
                         bool acyclic) {
    if (offsets.empty()) {
        return targets.empty() ? std::string()
                               : "csr: targets without an offset array";
    }
    if (offsets.front() != 0) return "csr: offsets[0] must be 0";
    const std::size_t n = offsets.size() - 1;
    for (std::size_t u = 0; u < n; ++u) {
        if (offsets[u] > offsets[u + 1]) {
            return "csr: offsets not monotone at node " + std::to_string(u);
        }
    }
    if (offsets.back() != targets.size()) {
        return "csr: offsets end at " + std::to_string(offsets.back()) + " but " +
               std::to_string(targets.size()) + " targets are stored";
    }
    for (std::size_t u = 0; u < n; ++u) {
        for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
            const NodeId v = targets[e];
            if (v >= n) {
                return "csr: edge " + std::to_string(u) + "->" + std::to_string(v) +
                       " targets a node out of range (n=" + std::to_string(n) + ")";
            }
            if (v == u) return "csr: self loop at node " + std::to_string(u);
            if (e > offsets[u] && targets[e - 1] >= v) {
                return "csr: successor list of node " + std::to_string(u) +
                       " is not sorted/duplicate-free";
            }
            if (topological && v < u) {
                return "csr: edge " + std::to_string(u) + "->" + std::to_string(v) +
                       " violates the claimed topological order";
            }
        }
    }
    if (acyclic && !topological) {
        // Kahn's algorithm: a DAG drains completely; leftovers are a cycle.
        std::vector<std::uint32_t> in_degree(n, 0);
        for (const NodeId v : targets) ++in_degree[v];
        std::vector<NodeId> frontier;
        for (std::size_t u = 0; u < n; ++u) {
            if (in_degree[u] == 0) frontier.push_back(static_cast<NodeId>(u));
        }
        std::size_t drained = 0;
        while (!frontier.empty()) {
            const NodeId u = frontier.back();
            frontier.pop_back();
            ++drained;
            for (std::uint32_t e = offsets[u]; e < offsets[u + 1]; ++e) {
                if (--in_degree[targets[e]] == 0) frontier.push_back(targets[e]);
            }
        }
        if (drained != n) {
            return "csr: cycle through " + std::to_string(n - drained) + " node(s)";
        }
    }
    return {};
}

std::string validate_csr(const CsrDigraph& g) {
    return validate_csr(g.offsets(), g.targets(), g.topologically_ordered());
}

std::vector<double> downstream_delay(const CsrDigraph& g,
                                     std::span<const double> delays) {
    LEQA_REQUIRE(g.topologically_ordered(),
                 "downstream_delay requires a topologically ordered graph");
    LEQA_REQUIRE(delays.size() == g.num_nodes(),
                 "delay vector size must equal node count");
    std::vector<double> downstream(g.num_nodes(), 0.0);
    for (NodeId u = static_cast<NodeId>(g.num_nodes()); u-- > 0;) {
        double best_successor = 0.0;
        for (const NodeId v : g.successors(u)) {
            best_successor = std::max(best_successor, downstream[v]);
        }
        downstream[u] = delays[u] + best_successor;
    }
    return downstream;
}

} // namespace leqa::graph
