/// \file csr.h
/// \brief Immutable compressed-sparse-row digraph and its traversal kernels.
///
/// The QODG, the QSPR list scheduler and the estimation engine all walk one
/// flat representation: two arrays (offsets + targets), after which
/// traversal is cache-friendly pointer arithmetic.  A `CsrDigraph` adopts
/// arrays its owner writes: the QODG its predecessor rows from its tape
/// (then `reversed()`).
///
/// The kernels below require a *topologically ordered* graph (every edge
/// goes from a lower to a higher node id).  The owner states whether that
/// property holds; graphs built from circuits in program order (the QODG)
/// always satisfy it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace leqa::graph {

using NodeId = std::uint32_t;

/// Immutable digraph in compressed-sparse-row form.
class CsrDigraph {
public:
    CsrDigraph() = default;

    /// Adopt raw CSR arrays: `offsets` has num_nodes + 1 entries, and each
    /// successor list is sorted and duplicate-free.  `topological` states
    /// whether every edge goes from a lower to a higher id.  Debug builds
    /// check the structure and a topological claim edge by edge, but not
    /// acyclicity: the QODG checks that once, on its successor view, and
    /// the validator tests adopt cyclic arrays on purpose.
    CsrDigraph(std::vector<std::uint32_t> offsets, std::vector<NodeId> targets,
               bool topological);

    [[nodiscard]] std::size_t num_nodes() const {
        return offsets_.empty() ? 0 : offsets_.size() - 1;
    }
    [[nodiscard]] std::size_t num_edges() const { return targets_.size(); }

    /// Successors of `u`, ascending by id.
    [[nodiscard]] std::span<const NodeId> successors(NodeId u) const {
        return {targets_.data() + offsets_[u], targets_.data() + offsets_[u + 1]};
    }

    [[nodiscard]] std::size_t out_degree(NodeId u) const {
        return offsets_[u + 1] - offsets_[u];
    }

    /// True when every edge goes from a lower to a higher id (node ids form
    /// a topological order); precondition of the kernels below.
    [[nodiscard]] bool topologically_ordered() const { return topological_; }

    /// Raw CSR arrays (read-only views; validate_csr and serializers).
    [[nodiscard]] std::span<const std::uint32_t> offsets() const { return offsets_; }
    [[nodiscard]] std::span<const NodeId> targets() const { return targets_; }

    /// Per-node in-degree (one O(|E|) pass).
    [[nodiscard]] std::vector<std::uint32_t> in_degrees() const;

    /// The edge-reversed graph: `reversed().successors(v)` lists the
    /// predecessors of `v`, ascending by id.  The result is topologically
    /// ordered exactly when every edge here goes high -> low: reversing a
    /// topologically ordered graph with edges yields one the
    /// order-dependent kernels below must not be fed, and reversing a
    /// predecessor CSR yields the forward graph.
    [[nodiscard]] CsrDigraph reversed() const;

private:
    std::vector<std::uint32_t> offsets_; ///< size num_nodes + 1
    std::vector<NodeId> targets_;        ///< concatenated successor lists
    bool topological_ = true;
};

// --- topological-order kernels ---------------------------------------------
//
// All kernels take per-node delays (path length = sum of node delays along
// the path) and require `g.topologically_ordered()`.

/// Longest path from `source` to every node.  Nodes unreachable from
/// `source` keep distance -1.
struct LongestPathResult {
    std::vector<double> distance;    ///< per node; -1 when unreachable
    std::vector<NodeId> predecessor; ///< per node: predecessor on that path
};

[[nodiscard]] LongestPathResult longest_path(const CsrDigraph& g,
                                             std::span<const double> delays,
                                             NodeId source);

/// Walk predecessors back from `sink` to `source` and return the
/// source->sink node sequence.  `distance` is only consulted to reject an
/// unreachable sink.
[[nodiscard]] std::vector<NodeId> extract_path(std::span<const double> distance,
                                               std::span<const NodeId> predecessor,
                                               NodeId source, NodeId sink);

[[nodiscard]] inline std::vector<NodeId> extract_path(const LongestPathResult& lp,
                                                      NodeId source, NodeId sink) {
    return extract_path(lp.distance, lp.predecessor, source, sink);
}

/// Longest path from each node to any sink, inclusive of the node's own
/// delay (the priority function of list scheduling).
[[nodiscard]] std::vector<double> downstream_delay(const CsrDigraph& g,
                                                   std::span<const double> delays);

// --- structural validation -------------------------------------------------

/// Validate raw CSR arrays: monotone offsets ending at `targets.size()`,
/// in-bounds targets, sorted duplicate-free successor lists, no self loops,
/// and — unless `acyclic` is false (the array constructor's structure-only
/// check) — acyclicity, by the low->high edge rule when
/// `topological` is claimed, by Kahn's algorithm otherwise.  Returns a
/// description of the first violation, or an empty string when the
/// structure is clean (the convention LEQA_DCHECK_OK consumes).
[[nodiscard]] std::string validate_csr(std::span<const std::uint32_t> offsets,
                                       std::span<const NodeId> targets,
                                       bool topological, bool acyclic = true);

/// Validate a frozen digraph (same checks over its internal arrays).
[[nodiscard]] std::string validate_csr(const CsrDigraph& g);

} // namespace leqa::graph
