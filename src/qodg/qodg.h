/// \file qodg.h
/// \brief The Quantum Operation Dependency Graph (QODG) of the paper (§2).
///
/// Nodes are FT operations; edges capture data dependencies through logical
/// qubits.  Following the paper:
///   - a dedicated `start` node precedes all first-level operations and an
///     `end` node succeeds all last-level operations;
///   - if two edges connect the same ordered node pair (a CNOT feeding both
///     operands of another CNOT) they are merged into one edge;
///   - node ids are a topological order by construction (gates are appended
///     in program order).
///
/// The dependency structure itself lives in a shared `graph::CsrDigraph`
/// (see graph/csr.h); this class adds the circuit-facing node metadata and
/// the weighted-longest-path machinery LEQA's Algorithm 1 (lines 19-20) and
/// the QSPR scheduler both build on: given a per-node delay vector, compute
/// the critical path, its length, and the per-gate-kind operation census
/// along it (N^critical of Eq. 1).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "graph/csr.h"

namespace leqa::qodg {

using NodeId = graph::NodeId;

enum class NodeKind : std::uint8_t { Start, Op, End };

/// One QODG node.  For `Op` nodes, `gate_index` refers into the source
/// circuit's gate list (always id - 1: gates map to ids 1..N).
struct Node {
    NodeKind kind = NodeKind::Op;
    std::size_t gate_index = 0;
    circuit::GateKind gate_kind = circuit::GateKind::X; ///< valid for Op nodes
};

/// Result of a longest-path computation.
struct LongestPath {
    std::vector<double> distance;  ///< per node: longest path length ending at node
    std::vector<NodeId> predecessor; ///< per node: predecessor on that path
    double length = 0.0;           ///< distance at the end node
};

/// Result of a lane-blocked longest-path computation: several per-kind
/// delay tables relaxed through one shared edge sweep.  Storage is
/// node-major — lane `l` of node `u` lives at index `u * lanes + l` — so
/// the per-edge inner loop touches one contiguous run per node.  No
/// per-node predecessors are materialized; critical_path_lane() recovers a
/// lane's path from the distances and the kind-major delay table kept here.
struct LongestPathLanes {
    std::size_t lanes = 0;
    std::vector<double> distance;  ///< node-major, [node * lanes + lane]
    /// Kind-major delay table the distances were computed with: delay of
    /// kind `k` in lane `l` at [k * lanes + l], plus one trailing all-zero
    /// row indexed by start/end nodes.
    std::vector<double> delay_soa;

    [[nodiscard]] double at(NodeId node, std::size_t lane) const {
        return distance[static_cast<std::size_t>(node) * lanes + lane];
    }
};

/// Per-kind census of operations on a path (plus the total).
struct PathCensus {
    std::array<std::size_t, circuit::kGateKindCount> by_kind{};
    std::size_t total_ops = 0;

    [[nodiscard]] std::size_t of(circuit::GateKind kind) const {
        return by_kind[static_cast<std::size_t>(kind)];
    }
};

class Qodg {
public:
    /// Build from a circuit.  Every gate becomes one node; edges follow the
    /// last-writer chain per qubit; parallel edges are merged.  The
    /// predecessor lists are written straight into CSR form in program
    /// order and the successor lists derived by reversal.
    explicit Qodg(const circuit::Circuit& circ);

    [[nodiscard]] std::size_t num_nodes() const { return delay_row_.size(); }
    [[nodiscard]] std::size_t num_edges() const { return csr_.num_edges(); }
    [[nodiscard]] std::size_t num_ops() const { return delay_row_.size() - 2; }
    [[nodiscard]] NodeId start() const { return 0; }
    [[nodiscard]] NodeId end() const { return static_cast<NodeId>(delay_row_.size() - 1); }
    /// The node record, derived from its id and delay row.  Throws
    /// InputError for an id out of range.
    [[nodiscard]] Node node(NodeId id) const;
    [[nodiscard]] std::span<const NodeId> successors(NodeId id) const {
        check_node(id); // CSR indexing below is unchecked
        return csr_.successors(id);
    }
    /// Predecessors of a node, ascending by id (the reverse-CSR adjacency
    /// built at construction).  Gathering them in this order reproduces the
    /// relax order of the push-based longest-path sweep bit for bit — the
    /// contract core::PlacedTimer's incremental re-timing relies on.
    [[nodiscard]] std::span<const NodeId> predecessors(NodeId id) const {
        check_node(id);
        return rcsr_.successors(id);
    }
    /// The raw dependency structure (node ids are a topological order).
    [[nodiscard]] const graph::CsrDigraph& csr() const { return csr_; }

    /// Node id of the i-th gate: gates map to ids 1..N in program order, so
    /// this is a constant-time offset plus a bounds check.
    [[nodiscard]] NodeId node_of_gate(std::size_t gate_index) const;

    /// Build a per-node delay vector from a per-gate-kind delay functor;
    /// start/end get zero delay.
    [[nodiscard]] std::vector<double> node_delays(
        const std::function<double(circuit::GateKind)>& delay_of) const;

    /// As above from a per-kind delay table (no indirect call per node).
    [[nodiscard]] std::vector<double> node_delays(
        const std::array<double, circuit::kGateKindCount>& delay_by_kind) const;

    /// Longest path from start to every node where path length is the sum
    /// of node delays along the path.  `delays.size()` must equal
    /// num_nodes().
    [[nodiscard]] LongestPath longest_path(const std::vector<double>& delays) const;

    /// Extract the start->end critical path node sequence from a
    /// longest-path result.
    [[nodiscard]] std::vector<NodeId> critical_path(const LongestPath& lp) const;

    /// Lane-blocked longest path: relax `tables.size()` per-gate-kind delay
    /// tables (one per parameter point) through a SINGLE pass over the
    /// edges.  The sweep is pull-based — for each node in topological
    /// order, gather the max over its predecessors (reverse CSR built at
    /// construction) into lane accumulators that live in registers — so
    /// the inner loop is a pure double add/compare/select over contiguous
    /// lanes with one store per node, and no distance re-initialization
    /// between calls.  Each lane's distances are bit-identical to a scalar
    /// longest_path() over the matching node_delays() vector: the
    /// predecessors of a node are gathered in the same ascending-id order
    /// the push-based sweep relaxes them in.  Reuses `out`'s storage
    /// across calls.  Start/end nodes get zero delay, as in node_delays().
    void longest_path_lanes(
        std::span<const std::array<double, circuit::kGateKindCount>> tables,
        LongestPathLanes& out) const;

    /// Extract one lane's start->end critical path from a lane-blocked
    /// result (same node sequence as critical_path()).  Predecessors are
    /// not stored during the sweep; this walks the reverse edges from the
    /// end taking, at each node v, the first predecessor u (ascending id)
    /// with distance(u) + delay(v) == distance(v) — exactly the
    /// predecessor the push-based scalar sweep records, since it is the
    /// first node to reach v's final distance and later ties never
    /// overwrite it.
    [[nodiscard]] std::vector<NodeId> critical_path_lane(
        const LongestPathLanes& lanes, std::size_t lane) const;

    /// census(critical_path_lane(lanes, lane)) for lanes [0, out.size())
    /// at once, without materializing any path.  Instead of walking each
    /// lane's predecessor chain (a serial string of dependent loads), one
    /// reverse-topological sweep carries a per-node lane bitmask: a node's
    /// path membership is decided by its already-processed successors, so
    /// every access streams through the arrays in id order.  Nodes with a
    /// single predecessor — most of the narrow QODG — forward their mask
    /// without reading any distances at all; only join nodes run the
    /// first-match predecessor scan per marked lane.
    void critical_census_lanes(const LongestPathLanes& lanes,
                               std::span<PathCensus> out) const;

    /// Count operations per gate kind along a node path (Op nodes only).
    [[nodiscard]] PathCensus census(const std::vector<NodeId>& path) const;

    /// Longest path from each node to the end (inclusive of the node's own
    /// delay).  Used as the priority function of list scheduling and for
    /// slack analysis.
    [[nodiscard]] std::vector<double> downstream_delay(
        const std::vector<double>& delays) const;

    /// Per-node scheduling slack: how much a node's delay could grow
    /// without lengthening the critical path.  Zero-slack nodes lie on a
    /// critical path.
    struct SlackAnalysis {
        std::vector<double> slack;
        double critical_length = 0.0;
        std::size_t zero_slack_nodes = 0; ///< includes start/end
    };
    [[nodiscard]] SlackAnalysis slack_analysis(const std::vector<double>& delays) const;

    /// Graphviz DOT rendering (regenerates the paper's Figure 2(b) for
    /// ham3-sized inputs; feasible for small graphs only).
    [[nodiscard]] std::string to_dot(const circuit::Circuit& circ) const;

private:
    void check_node(NodeId id) const;

    graph::CsrDigraph csr_;
    /// Predecessor CSR, built first: successors(v) are v's predecessors,
    /// ascending.  csr_ is its reversal.
    graph::CsrDigraph rcsr_;
    /// Per-node row into a kind-major delay table: the gate kind for Op
    /// nodes, the trailing zero row (kGateKindCount) for start/end.  The
    /// only per-node record: its size is the node count.
    std::vector<std::uint16_t> delay_row_;
};

} // namespace leqa::qodg
