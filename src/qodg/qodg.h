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
/// The class keeps what LEQA's Algorithm 1 reads, a tape written while
/// the gates stream in: per op its delay-table row and its operand pair
/// (10 B), per-kind op counts and the qubits the end node reads.  The
/// critical-path kernel (lines 19-20: given per-kind delays, the critical
/// path length and the per-kind census along it, N^critical of Eq. 1) and
/// the IIG the circuit profile reads run on the tape alone.  The dependency
/// structure the detailed mapper, the reference sweeps and `to_dot` walk, a
/// shared `graph::CsrDigraph` pair (see graph/csr.h), is a view built from
/// the tape on first use and then kept.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "graph/csr.h"
#include "iig/iig.h"

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
    using OperandPair = std::array<circuit::Qubit, 2>;
    /// An op on three or more qubits: its operands are
    /// wide_qubits_[begin, end).
    struct WideOp {
        std::uint32_t op = 0; ///< op index (node id - 1)
        std::uint32_t begin = 0;
        std::uint32_t end = 0;
    };

public:
    /// Streams gates into the tape in program order: the one construction
    /// path, fed by FT synthesis directly or by a circuit's gate list.
    class Builder {
    public:
        Builder();

        /// Append a qubit; the name is not kept.  Returns its index.
        circuit::Qubit add_qubit(std::string_view name = {});
        /// Append a gate after validating it against the qubit count
        /// (InputError on invalid operands, as Circuit::add_gate).  GCC 12
        /// -O3 still calls it out of line from a producer's loop, on a Gate
        /// built and checked per op; add_network writes a whole network.
        void add_gate(const circuit::Gate& gate) {
            gate.validate_against(last_.size());
            const auto me = static_cast<NodeId>(delay_row_.size());
            const std::span<const circuit::Qubit> qubits = gate.qubits();
            if (qubits.size() <= 2) [[likely]] {
                // The operand pair of the lane kernel: the one whose last
                // node has the lower id first, (q, q) for a one-qubit op.
                // The predecessor row, those last nodes once each,
                // ascending, follows from it.
                circuit::Qubit first = qubits.front();
                circuit::Qubit second = qubits.back();
                if (last_[second] < last_[first]) std::swap(first, second);
                operands_.push_back({first, second});
                if (first != second) ++num_two_qubit_ops_;
            } else {
                add_wide_op(qubits);
            }
            for (const circuit::Qubit q : qubits) last_[q] = me;
            delay_row_.push_back(static_cast<std::uint16_t>(gate.kind));
            ++gate_counts_[static_cast<std::size_t>(gate.kind)];
        }
        /// Append the constexpr circuit::NetworkStep table `Steps` on \p slots
        /// as one block, the tape add_gate would write step by step: checked,
        /// sized, counted and last nodes set once.  A node the block wrote is
        /// newer than any before it, so add_gate's order for a step that
        /// meets an earlier one is settled at compile time.  Invalid slots
        /// take add_gate step by step, which throws at the first bad step.
        template <const auto& Steps, std::size_t N>
        void add_network(const std::array<circuit::Qubit, N>& slots) {
            static_assert(std::ranges::all_of(Steps, [](const circuit::NetworkStep& s) {
                const circuit::GateInfo& info = circuit::gate_info(s.kind);
                return s.first < N && s.second < N && info.targets == 1 &&
                       info.min_controls == (s.one_qubit() ? 0 : 1);
            }));
            if (!std::ranges::all_of(slots, [&](circuit::Qubit q) {
                    return q < last_.size() && std::ranges::count(slots, q) == 1;
                })) [[unlikely]] {
                for (const circuit::NetworkStep& step : Steps) add_gate(step.gate(slots));
                return;
            }
            static constexpr auto seen = [](std::size_t k, std::size_t end) {
                int last = -1; // the last step before `end` on slot k, -1 for none
                for (std::size_t i = 0; i < end; ++i) {
                    if (Steps[i].first == k || Steps[i].second == k) last = static_cast<int>(i);
                }
                return last;
            };
            const auto base = static_cast<NodeId>(delay_row_.size());
            const std::size_t at = operands_.size();
            operands_.resize(at + Steps.size());
            delay_row_.resize(base + Steps.size());
            [&]<std::size_t... I>(std::index_sequence<I...>) {
                const auto write = [&]<std::size_t i>() {
                    constexpr circuit::NetworkStep step = Steps[i];
                    constexpr int f = seen(step.first, i), s = seen(step.second, i);
                    const circuit::Qubit a = slots[step.first], b = slots[step.second];
                    bool swap = s < f;
                    if constexpr (f < 0 && s < 0) swap = last_[b] < last_[a];
                    operands_[at + i] = swap ? OperandPair{b, a} : OperandPair{a, b};
                    delay_row_[base + i] = static_cast<std::uint16_t>(step.kind);
                    ++gate_counts_[static_cast<std::size_t>(step.kind)];
                    if constexpr (!step.one_qubit()) ++num_two_qubit_ops_;
                };
                (write.template operator()<I>(), ...);
            }(std::make_index_sequence<Steps.size()>{});
            for (std::size_t k = 0; k < N; ++k) {
                const int j = seen(k, Steps.size());
                if (j >= 0) last_[slots[k]] = base + static_cast<NodeId>(j);
            }
        }
        /// Reserve room for \p gates gates in total.
        void reserve_gates(std::size_t gates);

        /// Gates so far.
        [[nodiscard]] std::size_t size() const { return operands_.size(); }
        /// True if every gate so far is in the FT set (from the per-kind
        /// counts).
        [[nodiscard]] bool is_ft() const;

    private:
        friend class Qodg;

        /// add_gate's tape entries for an op on three or more qubits.
        void add_wide_op(std::span<const circuit::Qubit> qubits);

        std::vector<std::uint16_t> delay_row_; ///< start's row, then one per op
        std::vector<OperandPair> operands_;
        std::vector<WideOp> wide_ops_;
        std::vector<circuit::Qubit> wide_qubits_;
        std::array<std::size_t, circuit::kGateKindCount> gate_counts_{};
        std::size_t num_two_qubit_ops_ = 0;
        std::vector<NodeId> last_; ///< per qubit: the last node on it (start initially)
    };

    /// Freeze a builder's tape.  End depends on every qubit's last node.
    explicit Qodg(Builder&& builder);

    /// Build from a circuit: its qubits and gates fed through a Builder.
    /// Every gate becomes one node; edges follow the last-writer chain per
    /// qubit; parallel edges are merged.
    explicit Qodg(const circuit::Circuit& circ);

    [[nodiscard]] std::size_t num_nodes() const { return delay_row_.size(); }
    /// Builds the CSR views on first call.
    [[nodiscard]] std::size_t num_edges() const { return csr().num_edges(); }
    [[nodiscard]] std::size_t num_ops() const { return delay_row_.size() - 2; }
    [[nodiscard]] std::size_t num_qubits() const { return num_qubits_; }
    /// Per-kind op counts over the whole graph.
    [[nodiscard]] const std::array<std::size_t, circuit::kGateKindCount>& gate_counts() const {
        return gate_counts_;
    }
    [[nodiscard]] NodeId start() const { return 0; }
    [[nodiscard]] NodeId end() const { return static_cast<NodeId>(delay_row_.size() - 1); }
    /// The node record, derived from its id and delay row.  Throws
    /// InputError for an id out of range.
    [[nodiscard]] Node node(NodeId id) const;
    // The adjacency below comes from the CSR views, built from the tape on
    // the first call of any of them (or of num_edges, longest_path,
    // downstream_delay, slack_analysis, to_dot), once, safely under
    // concurrent first use.  Per-node loops take csr() and
    // predecessor_csr() once instead of paying the once-check per call.

    [[nodiscard]] std::span<const NodeId> successors(NodeId id) const {
        check_node(id); // CSR indexing below is unchecked
        return csr().successors(id);
    }
    /// Predecessors of a node, ascending by id.  Gathering them in this
    /// order reproduces the relax order of the push-based longest-path
    /// sweep bit for bit — the contract core::PlacedTimer's incremental
    /// re-timing relies on.
    [[nodiscard]] std::span<const NodeId> predecessors(NodeId id) const {
        check_node(id);
        return predecessor_csr().successors(id);
    }
    /// The raw dependency structure (node ids are a topological order).
    [[nodiscard]] const graph::CsrDigraph& csr() const { return views().successors; }
    /// Its reversal: predecessor_csr().successors(v) are v's predecessors.
    [[nodiscard]] const graph::CsrDigraph& predecessor_csr() const {
        return views().predecessors;
    }

    /// The IIG statistics (§3.1) read from the tape in one pass: weight 1
    /// per two-qubit op to its pair, and to every operand pair of a wider
    /// op, as iig::Iig collects them from the circuit, so both give the
    /// same M_i, W_i and |E|.
    [[nodiscard]] iig::Iig interaction_graph() const;

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

    /// Graphviz DOT rendering, each op labelled with its gate kind from the
    /// tape (regenerates the paper's Figure 2(b) for ham3-sized inputs;
    /// feasible for small graphs only).
    [[nodiscard]] std::string to_dot() const;

private:
    /// The CSR views: the predecessor CSR is written first, one row per
    /// node in id order; successors is its reversal.
    struct Views {
        graph::CsrDigraph successors;
        graph::CsrDigraph predecessors;
    };

    void check_node(NodeId id) const;
    [[nodiscard]] const Views& views() const;
    [[nodiscard]] std::span<const circuit::Qubit> wide_operands(const WideOp& op) const {
        return {wide_qubits_.data() + op.begin, wide_qubits_.data() + op.end};
    }

    /// Per node: the gate kind of an Op node, the row of the per-kind
    /// delay table it reads; kGateKindCount for start/end.  Its size is
    /// the node count.
    std::vector<std::uint16_t> delay_row_;
    /// Per op (node id - 1): its operand qubits, the one whose last node
    /// has the lower id first; (q, q) for a one-qubit op, and the first
    /// operand twice for a wide op.
    std::vector<OperandPair> operands_;
    /// The ops on three or more qubits (pre-FT graphs, keep_toffoli), in
    /// program order, with their full operand lists.
    std::vector<WideOp> wide_ops_;
    std::vector<circuit::Qubit> wide_qubits_;
    std::array<std::size_t, circuit::kGateKindCount> gate_counts_{};
    /// One qubit per distinct end-node predecessor, ascending by that
    /// predecessor's id: the qubit it is the last node on (any qubit for
    /// start).  Empty for a qubit-free circuit.
    std::vector<circuit::Qubit> end_qubits_;
    std::size_t num_qubits_ = 0; ///< registers per lane
    std::size_t num_two_qubit_ops_ = 0; ///< ops with f != s: one winner word each

    mutable std::once_flag views_once_;
    mutable Views views_;
};

} // namespace leqa::qodg
