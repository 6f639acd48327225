/// \file placed.h
/// \brief Placement-dependent timing model + incremental re-timing engine.
///
/// The staged estimator prices a CNOT with the *expected* operand distance
/// (Eq. 13's E[S_q] machinery).  Once qubits have concrete home ULBs, the
/// distance is not a distribution any more: a CNOT between qubits homed at
/// u and w costs its base FT latency plus `Topology::distance(u, w)` hops
/// of qubit motion.  `placed_node_delays` turns a placement into a per-QODG
/// -node delay vector under that model, and the placed latency is the
/// QODG's weighted longest path — exactly `Qodg::longest_path`.
///
/// `PlacedTimer` is the incremental version of that evaluation, built for
/// search loops (core::optimize_placement) where the placement changes one
/// swap/relocate at a time.  A move re-homes 1–2 qubits, so only the CNOT
/// nodes touching those qubits change delay; the timer re-relaxes the
/// affected cone only:
///
///   - a per-qubit -> CNOT-node index (CSR layout) finds the changed nodes
///     in O(gates touching the moved qubits);
///   - a forward dirty-scan in ascending node id (QODG ids are topological)
///     recomputes arrivals with a pull-based gather (`Qodg::predecessors`
///     ascending, `>= 0` reachability guard, strict `>`), which is
///     bit-identical to the push-based `graph::longest_path` kernel;
///     successors are marked
///     dirty only when a node's arrival actually changed, so propagation
///     stops at the cone boundary.  A flat scan beats a heap worklist here:
///     search-move cones are dense in their id span, and the scan costs a
///     flag test per spanned node instead of log-cost heap traffic;
///   - a backward dirty-scan maintains `tail[v]` (longest path v -> end,
///     excluding v's own delay), the cached downstream-delay array that
///     prices "the longest path through v" as `arrival[v] + tail[v]` in
///     O(1) for candidate-move bounds.  Tails only feed those bounds, so
///     the backward scan is *deferred*: an apply just marks seed nodes, and
///     the scan runs at the next bound/tails() call — which never comes for
///     a move that is reverted, so a search loop pays one tail pass per
///     *kept* move instead of two per evaluated move;
///   - every apply keeps an undo log (old delay/arrival/tail of each cell
///     it wrote, plus the old latency).  Applying the exact inverse move
///     next restores the logged bits directly instead of re-timing — the
///     search loop's reject-and-revert hot path drops from two cone
///     propagations to one propagation plus an O(cone) copy-back.
///
/// The correctness contract is *bit-exact parity*: after any sequence of
/// moves, `arrivals()` and `latency_us()` equal a from-scratch
/// `Qodg::longest_path(delays())` down to the last bit (property-tested
/// with >= 10k randomized moves).  Exactness is possible — not just
/// approximation — because the incremental pass recomputes each affected
/// node with the identical gather order and comparison semantics as the
/// full kernel, and IEEE max/add are deterministic functions of their
/// operands; nodes outside the cone keep inputs unchanged, hence outputs
/// unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "fabric/params.h"
#include "fabric/topology.h"
#include "qodg/qodg.h"

namespace leqa::core {

/// One candidate per-node delay replacement (a move's timing footprint).
struct DelayChange {
    qodg::NodeId node = 0;
    double delay = 0.0;
};

/// Per-node delays of a circuit under a concrete placement: CNOT nodes pay
/// `d_cnot_us + distance(home[control], home[target]) * t_move_us`,
/// one-qubit nodes pay `delay_us(kind) + one_qubit_routing_latency_us()`,
/// start/end are zero.  `homes[q]` is qubit q's home ULB.
[[nodiscard]] std::vector<double> placed_node_delays(
    const qodg::Qodg& graph, const circuit::Circuit& circ,
    const fabric::Topology& topology, const fabric::PhysicalParams& params,
    std::span<const fabric::UlbId> homes);

/// Incremental placed-latency evaluator.  See the file comment.
///
/// Not thread-safe; one timer per search thread (like EstimationEngine).
class PlacedTimer {
public:
    static constexpr std::int32_t kNoQubit = -1;

    /// \p circ must be the FT circuit the QODG was built from; \p homes one
    /// distinct in-range home ULB per logical qubit.
    PlacedTimer(const qodg::Qodg& graph, const circuit::Circuit& circ,
                const fabric::PhysicalParams& params,
                std::vector<fabric::UlbId> homes);

    /// Placed critical latency (µs): the longest start->end path.
    [[nodiscard]] double latency_us() const { return latency_; }

    [[nodiscard]] const std::vector<fabric::UlbId>& homes() const { return homes_; }
    /// Qubit homed at \p ulb, or kNoQubit.
    [[nodiscard]] std::int32_t occupant(fabric::UlbId ulb) const;
    [[nodiscard]] std::size_t num_qubits() const { return homes_.size(); }
    [[nodiscard]] std::size_t num_ulbs() const { return occupant_.size(); }
    [[nodiscard]] const fabric::Topology& topology() const { return *topology_; }

    /// Current per-node delays / longest-path arrivals (parity: arrivals()
    /// is bit-identical to Qodg::longest_path(delays()).distance).
    [[nodiscard]] const std::vector<double>& delays() const { return delay_; }
    [[nodiscard]] const std::vector<double>& arrivals() const { return arrival_; }
    /// Longest path from each node to end, *excluding* the node's own delay.
    /// Non-const: runs the deferred backward scan if one is pending.
    [[nodiscard]] const std::vector<double>& tails();

    /// Exchange the homes of two distinct qubits and incrementally re-time;
    /// returns the new latency.  A second identical call reverts the move
    /// and restores every arrival bit-for-bit — and when it immediately
    /// follows the first (no other apply in between) it replays the undo
    /// log instead of re-timing, at O(cone) copy cost.
    double apply_swap(std::size_t q1, std::size_t q2);

    /// Move \p q to the free ULB \p to (throws InputError if occupied) and
    /// incrementally re-time; returns the new latency.  Relocating back
    /// reverts the move exactly (via the undo log when immediate, like
    /// apply_swap).
    double apply_relocate(std::size_t q, fabric::UlbId to);

    /// Conservative lower bound on the latency the move would produce,
    /// without applying it — O(gates touching the moved qubits).  Two
    /// ingredients, both safe against IEEE rounding:
    ///   - if no delay-shrinking node lies on a critical path (criticality
    ///     over-approximated with a 1e-9 relative tolerance), every
    ///     critical path keeps its length, so the bound is the current
    ///     latency itself — and that case is exact, not approximate:
    ///     growing delays propagate monotonically through fp max/add;
    ///   - the longest path through any changed node n is at least
    ///     arrival[n] + tail[n] + delta_n plus the other changes' negative
    ///     deltas, shaved by a 1e-9 relative slop for rounding.
    /// A search loop can reject a candidate on this bound alone (with the
    /// Metropolis u drawn *before* the bound test, the fast path rejects a
    /// superset-consistent subset and the accept distribution is unchanged).
    [[nodiscard]] double swap_lower_bound(std::size_t q1, std::size_t q2);
    [[nodiscard]] double relocate_lower_bound(std::size_t q, fabric::UlbId to);

    /// Nodes whose arrival was recomputed by the last apply_* (cone size).
    [[nodiscard]] std::size_t last_retimed_nodes() const { return last_retimed_; }

    /// Full consistency audit of the incremental state (a validator in the
    /// LEQA_DCHECK_OK shape): arrivals bit-identical to a from-scratch
    /// Qodg::longest_path(delays()), tails satisfying the descending
    /// recurrence tail[v] = max_w (delay[w] + tail[w]) (0 at end), and
    /// latency_us() == arrival at the end node.  Flushes any deferred tail
    /// scan first.  Returns the first violation, empty when consistent.
    [[nodiscard]] std::string audit();

private:
    /// Fill scratch_changes_ with the CNOT delay changes of re-homing; the
    /// caller has already (tentatively or actually) updated coords_.
    void collect_changes(std::size_t q1, std::size_t q2);
    [[nodiscard]] double cnot_delay(qodg::NodeId node) const;
    [[nodiscard]] double lower_bound_for_changes() const;
    /// Commit scratch_changes_: forward-scan the affected cone (logging
    /// every cell written), seed the deferred backward scan.
    double apply_changes();
    /// Reverse-replay the undo log of the last applied move.
    double restore_last_move();
    /// Run the deferred backward (tail) scan if seeds are pending.
    void flush_tails();
    void mark_forward(qodg::NodeId node);
    void mark_backward(qodg::NodeId node);

    const qodg::Qodg* graph_;
    /// The QODG's CSR views, taken once: the per-node loops index them
    /// directly.
    const graph::CsrDigraph* successors_;
    const graph::CsrDigraph* predecessors_;
    std::shared_ptr<const fabric::Topology> topology_;
    double t_move_us_ = 0.0;
    double d_cnot_us_ = 0.0;

    std::vector<fabric::UlbId> homes_;
    std::vector<fabric::UlbCoord> coords_;  ///< coords_[q] = coord of homes_[q]
    std::vector<std::int32_t> occupant_;    ///< per ULB: qubit or kNoQubit

    /// Operands of CNOT nodes (by node id; unused slots for other nodes).
    std::vector<circuit::Qubit> cnot_control_;
    std::vector<circuit::Qubit> cnot_target_;
    /// CSR index: CNOT node ids touching qubit q, ascending.
    std::vector<std::uint32_t> qubit_cnot_offsets_;
    std::vector<qodg::NodeId> qubit_cnot_nodes_;

    std::vector<double> delay_;
    std::vector<double> arrival_;
    std::vector<double> tail_;
    double latency_ = 0.0;

    std::vector<DelayChange> scratch_changes_;
    std::vector<char> in_fwd_;        ///< forward dirty flags (scan order: ascending)
    std::vector<char> in_bwd_;        ///< backward dirty flags (scan order: descending)
    std::size_t fwd_pending_ = 0;     ///< set forward flags awaiting the scan
    std::size_t bwd_pending_ = 0;     ///< set backward flags awaiting flush_tails
    qodg::NodeId fwd_lo_ = 0;         ///< min marked forward node (scan start)
    qodg::NodeId bwd_hi_ = 0;         ///< max marked backward node (scan start)
    std::size_t last_retimed_ = 0;

    /// Undo log of the last applied move; `restore_last_move` replays the
    /// entries in reverse (each holds the *old* value of the cell written).
    enum class LastMove : std::uint8_t { None, Swap, Relocate };
    LastMove last_kind_ = LastMove::None;
    std::size_t last_q1_ = 0;
    std::size_t last_q2_ = 0;
    fabric::UlbId last_from_ = 0;     ///< relocate only: the origin ULB
    double undo_latency_ = 0.0;
    std::vector<DelayChange> undo_delays_;
    std::vector<DelayChange> undo_arrivals_;
    std::vector<DelayChange> undo_tails_;
};

} // namespace leqa::core
