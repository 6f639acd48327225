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

/// Result of a lane-blocked longest-path computation: up to 32 per-kind
/// delay tables (one per parameter point) run through one forward pass
/// over per-qubit lane registers.  It keeps each lane's path length and
/// what critical_census_lanes() needs to recover the paths without any
/// per-node distance: one winner bit per (two-qubit op, lane) and the
/// register each lane's end node took its length from.
struct LongestPathLanes {
    /// Kernel width: 1, 8 or 32.  Lanes past the table count repeat the
    /// last table.
    std::size_t width = 0;
    std::vector<double> length; ///< per delay table: start->end path length
    /// Per two-qubit op, in program order, max(1, width / 8) bytes: bit l
    /// is set when lane l's path enters the op through its second operand.
    /// A one-qubit op has one way in and no word.
    std::vector<std::uint8_t> via_second;
    /// Per lane: the qubit whose register won the end node (unused for a
    /// qubit-free circuit).
    std::vector<circuit::Qubit> end_qubit;
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

    /// Lane-blocked longest path: run `tables.size()` (1..32) per-gate-kind
    /// delay tables, one per parameter point, through ONE forward pass in
    /// program order.  A node's predecessors are the last nodes on its
    /// operands, so the pass keeps one register per (qubit, lane) instead
    /// of a distance per node.  A one-qubit op adds its delay to its
    /// qubit's register.  A two-qubit op reads both operand registers (the
    /// one whose last node has the lower id first), adds its delay, writes
    /// the larger candidate to both, and records in a lane bit whether the
    /// second operand won — the push-based sweep's candidate set, relax
    /// order and strict `>`, so each lane's length is bit-identical to
    /// longest_path() over the matching node_delays().
    /// The end node takes, per lane, the largest register, ties going to
    /// the smallest last-node id.  Widths 1, 8 and 32 are compiled
    /// kernels; other counts run at the next one up, the extra lanes
    /// repeating the last table.  Throws InputError for 0 or more than 32
    /// tables, a NaN or negative delay, or an op on more than two qubits
    /// (a pre-FT graph).  Reuses `out`'s storage across calls.
    void longest_path_lanes(
        std::span<const std::array<double, circuit::kGateKindCount>> tables,
        LongestPathLanes& out) const;

    /// census(critical_path(...)) for lanes [0, out.size()) at once,
    /// without materializing any path: one reverse pass over the ops
    /// carries a lane mask per qubit.  An op is on a lane's path when the
    /// lane is in either operand's mask; a two-qubit op's winner bit then
    /// moves the lane to the operand the path entered through.  No
    /// distance is re-read, and every lane's count is exactly the scalar
    /// walk's.  Throws InputError for a result of another graph (a
    /// different two-qubit op count, or an end qubit out of range).
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
    /// Per node: the gate kind of an Op node, the row of the per-kind
    /// delay table it reads; kGateKindCount for start/end.  Its size is
    /// the node count.
    std::vector<std::uint16_t> delay_row_;
    /// Per op (node id - 1): its operand qubits, the one whose last node
    /// has the lower id first; (q, q) for a one-qubit op.
    std::vector<std::array<circuit::Qubit, 2>> operands_;
    /// One qubit per distinct end-node predecessor, ascending by that
    /// predecessor's id: the qubit it is the last node on (any qubit for
    /// start).  Empty for a qubit-free circuit.
    std::vector<circuit::Qubit> end_qubits_;
    std::size_t num_qubits_ = 0; ///< registers per lane
    std::size_t num_two_qubit_ops_ = 0; ///< ops with f != s: one winner word each
    bool has_wide_ops_ = false; ///< some op touches more than two qubits
};

} // namespace leqa::qodg
