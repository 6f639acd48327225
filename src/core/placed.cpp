#include "core/placed.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/error.h"

namespace leqa::core {

namespace {

constexpr std::size_t kNoPartner = static_cast<std::size_t>(-1);

/// Relative tolerance of the candidate-bound arithmetic: criticality is
/// over-approximated and the through-bound shaved by this factor, so IEEE
/// rounding can only weaken the bound, never make it unsound.
constexpr double kRelSlop = 1e-9;

double one_qubit_delay(const fabric::PhysicalParams& params, circuit::GateKind kind) {
    return params.delay_us(kind) + params.one_qubit_routing_latency_us();
}

} // namespace

std::vector<double> placed_node_delays(const qodg::Qodg& graph,
                                       const circuit::Circuit& circ,
                                       const fabric::Topology& topology,
                                       const fabric::PhysicalParams& params,
                                       std::span<const fabric::UlbId> homes) {
    LEQA_REQUIRE(graph.num_ops() == circ.size(),
                 "QODG was not built from this circuit");
    LEQA_REQUIRE(homes.size() == circ.num_qubits(),
                 "one home ULB per logical qubit required");
    std::vector<double> delays(graph.num_nodes(), 0.0);
    for (std::size_t i = 0; i < circ.size(); ++i) {
        const circuit::Gate& gate = circ.gate(i);
        const qodg::NodeId node = graph.node_of_gate(i);
        if (gate.kind == circuit::GateKind::Cnot) {
            const int hops = topology.distance(
                topology.ulb_coord(homes[gate.controls()[0]]),
                topology.ulb_coord(homes[gate.targets()[0]]));
            delays[node] =
                params.d_cnot_us + params.t_move_us * static_cast<double>(hops);
        } else {
            delays[node] = one_qubit_delay(params, gate.kind);
        }
    }
    return delays;
}

PlacedTimer::PlacedTimer(const qodg::Qodg& graph, const circuit::Circuit& circ,
                         const fabric::PhysicalParams& params,
                         std::vector<fabric::UlbId> homes)
    : graph_(&graph),
      successors_(&graph.csr()),
      predecessors_(&graph.predecessor_csr()),
      topology_(fabric::make_topology(params)),
      t_move_us_(params.t_move_us),
      d_cnot_us_(params.d_cnot_us),
      homes_(std::move(homes)) {
    params.validate();
    LEQA_REQUIRE(circ.is_ft(), "PlacedTimer prices FT circuits only");
    LEQA_REQUIRE(graph.num_ops() == circ.size(),
                 "QODG was not built from this circuit");
    LEQA_REQUIRE(homes_.size() == circ.num_qubits(),
                 "one home ULB per logical qubit required");

    const std::size_t ulbs = topology_->num_ulbs();
    occupant_.assign(ulbs, kNoQubit);
    coords_.resize(homes_.size());
    for (std::size_t q = 0; q < homes_.size(); ++q) {
        const fabric::UlbId home = homes_[q];
        LEQA_REQUIRE(home >= 0 && static_cast<std::size_t>(home) < ulbs,
                     "home ULB out of range");
        LEQA_REQUIRE(occupant_[static_cast<std::size_t>(home)] == kNoQubit,
                     "two qubits share a home ULB");
        occupant_[static_cast<std::size_t>(home)] = static_cast<std::int32_t>(q);
        coords_[q] = topology_->ulb_coord(home);
    }

    // Per-qubit -> CNOT-node CSR index + the CNOT operand tables.
    const std::size_t n = graph.num_nodes();
    cnot_control_.assign(n, 0);
    cnot_target_.assign(n, 0);
    qubit_cnot_offsets_.assign(homes_.size() + 1, 0);
    delay_.assign(n, 0.0);
    for (std::size_t i = 0; i < circ.size(); ++i) {
        const circuit::Gate& gate = circ.gate(i);
        const qodg::NodeId node = graph.node_of_gate(i);
        if (gate.kind == circuit::GateKind::Cnot) {
            cnot_control_[node] = gate.controls()[0];
            cnot_target_[node] = gate.targets()[0];
            ++qubit_cnot_offsets_[gate.controls()[0] + 1];
            ++qubit_cnot_offsets_[gate.targets()[0] + 1];
            delay_[node] = cnot_delay(node);
        } else {
            delay_[node] = one_qubit_delay(params, gate.kind);
        }
    }
    for (std::size_t q = 0; q < homes_.size(); ++q) {
        qubit_cnot_offsets_[q + 1] += qubit_cnot_offsets_[q];
    }
    qubit_cnot_nodes_.resize(qubit_cnot_offsets_.back());
    std::vector<std::uint32_t> cursor(qubit_cnot_offsets_.begin(),
                                      qubit_cnot_offsets_.end() - 1);
    for (std::size_t i = 0; i < circ.size(); ++i) {
        const circuit::Gate& gate = circ.gate(i);
        if (gate.kind != circuit::GateKind::Cnot) continue;
        const qodg::NodeId node = graph.node_of_gate(i);
        qubit_cnot_nodes_[cursor[gate.controls()[0]]++] = node;
        qubit_cnot_nodes_[cursor[gate.targets()[0]]++] = node;
    }

    // Full forward pass: the pull-based gather that is bit-identical to the
    // push-based graph::longest_path kernel (see Qodg::predecessors).
    arrival_.assign(n, -1.0);
    arrival_[0] = delay_[0];
    for (qodg::NodeId v = 1; v < n; ++v) {
        double acc = -1.0;
        for (const qodg::NodeId u : predecessors_->successors(v)) {
            const double du = arrival_[u];
            if (du < 0.0) continue;
            const double candidate = du + delay_[v];
            if (candidate > acc) acc = candidate;
        }
        arrival_[v] = acc;
    }
    latency_ = arrival_[graph.end()];

    // Full backward pass: tail[v] = longest v -> end path minus v's delay.
    tail_.assign(n, 0.0);
    for (qodg::NodeId v = graph.end(); v-- > 0;) {
        double acc = -std::numeric_limits<double>::infinity();
        for (const qodg::NodeId w : successors_->successors(v)) {
            const double candidate = delay_[w] + tail_[w];
            if (candidate > acc) acc = candidate;
        }
        tail_[v] = std::isfinite(acc) ? acc : 0.0;
    }

    in_fwd_.assign(n, 0);
    in_bwd_.assign(n, 0);

    // Debug stage-boundary contract: the from-scratch passes above agree
    // with the reference kernels (compiled out of Release).
    LEQA_DCHECK_OK(audit());
}

std::int32_t PlacedTimer::occupant(fabric::UlbId ulb) const {
    LEQA_REQUIRE(ulb >= 0 && static_cast<std::size_t>(ulb) < occupant_.size(),
                 "ULB out of range");
    return occupant_[static_cast<std::size_t>(ulb)];
}

double PlacedTimer::cnot_delay(qodg::NodeId node) const {
    const int hops =
        topology_->distance(coords_[cnot_control_[node]], coords_[cnot_target_[node]]);
    return d_cnot_us_ + t_move_us_ * static_cast<double>(hops);
}

void PlacedTimer::collect_changes(std::size_t q1, std::size_t q2) {
    scratch_changes_.clear();
    const auto visit = [&](std::size_t q) {
        for (std::uint32_t i = qubit_cnot_offsets_[q]; i < qubit_cnot_offsets_[q + 1];
             ++i) {
            const qodg::NodeId node = qubit_cnot_nodes_[i];
            // A CNOT between the two moved qubits appears in both lists;
            // keep its first occurrence only.
            if (q == q2 && (cnot_control_[node] == q1 || cnot_target_[node] == q1)) {
                continue;
            }
            const double fresh = cnot_delay(node);
            if (fresh != delay_[node]) {
                scratch_changes_.push_back(DelayChange{node, fresh});
            }
        }
    };
    visit(q1);
    if (q2 != kNoPartner) visit(q2);
}

double PlacedTimer::lower_bound_for_changes() const {
    const double current = latency_;
    double negative_sum = 0.0;
    bool shrinking_critical = false;
    for (const DelayChange& change : scratch_changes_) {
        const double delta = change.delay - delay_[change.node];
        if (delta < 0.0) {
            negative_sum += delta;
            const double through = arrival_[change.node] + tail_[change.node];
            if (through >= current - kRelSlop * std::abs(current)) {
                shrinking_critical = true;
            }
        }
    }
    // No critical path loses a node's delay => every critical path keeps
    // its (bit-exact) length and the latency cannot drop below `current`.
    double bound = shrinking_critical ? -std::numeric_limits<double>::infinity()
                                      : current;
    for (const DelayChange& change : scratch_changes_) {
        const double delta = change.delay - delay_[change.node];
        double through = arrival_[change.node] + tail_[change.node] + delta +
                         (negative_sum - std::min(0.0, delta));
        through -= kRelSlop * std::abs(through);
        bound = std::max(bound, through);
    }
    return bound;
}

double PlacedTimer::swap_lower_bound(std::size_t q1, std::size_t q2) {
    LEQA_REQUIRE(q1 < homes_.size() && q2 < homes_.size() && q1 != q2,
                 "swap needs two distinct qubits");
    flush_tails();
    std::swap(coords_[q1], coords_[q2]);
    collect_changes(q1, q2);
    const double bound = lower_bound_for_changes();
    std::swap(coords_[q1], coords_[q2]);
    return bound;
}

double PlacedTimer::relocate_lower_bound(std::size_t q, fabric::UlbId to) {
    LEQA_REQUIRE(q < homes_.size(), "qubit out of range");
    LEQA_REQUIRE(occupant(to) == kNoQubit, "destination ULB is occupied");
    flush_tails();
    const fabric::UlbCoord saved = coords_[q];
    coords_[q] = topology_->ulb_coord(to);
    collect_changes(q, kNoPartner);
    const double bound = lower_bound_for_changes();
    coords_[q] = saved;
    return bound;
}

const std::vector<double>& PlacedTimer::tails() {
    flush_tails();
    return tail_;
}

double PlacedTimer::apply_swap(std::size_t q1, std::size_t q2) {
    LEQA_REQUIRE(q1 < homes_.size() && q2 < homes_.size() && q1 != q2,
                 "swap needs two distinct qubits");
    std::swap(homes_[q1], homes_[q2]);
    std::swap(coords_[q1], coords_[q2]);
    occupant_[static_cast<std::size_t>(homes_[q1])] = static_cast<std::int32_t>(q1);
    occupant_[static_cast<std::size_t>(homes_[q2])] = static_cast<std::int32_t>(q2);
    if (last_kind_ == LastMove::Swap &&
        ((q1 == last_q1_ && q2 == last_q2_) || (q1 == last_q2_ && q2 == last_q1_))) {
        return restore_last_move();
    }
    collect_changes(q1, q2);
    last_kind_ = LastMove::Swap;
    last_q1_ = q1;
    last_q2_ = q2;
    return apply_changes();
}

double PlacedTimer::apply_relocate(std::size_t q, fabric::UlbId to) {
    LEQA_REQUIRE(q < homes_.size(), "qubit out of range");
    LEQA_REQUIRE(occupant(to) == kNoQubit, "destination ULB is occupied");
    const fabric::UlbId from = homes_[q];
    occupant_[static_cast<std::size_t>(from)] = kNoQubit;
    occupant_[static_cast<std::size_t>(to)] = static_cast<std::int32_t>(q);
    homes_[q] = to;
    coords_[q] = topology_->ulb_coord(to);
    if (last_kind_ == LastMove::Relocate && q == last_q1_ && to == last_from_) {
        return restore_last_move();
    }
    collect_changes(q, kNoPartner);
    last_kind_ = LastMove::Relocate;
    last_q1_ = q;
    last_from_ = from;
    return apply_changes();
}

void PlacedTimer::mark_forward(qodg::NodeId node) {
    if (in_fwd_[node]) return;
    in_fwd_[node] = 1;
    ++fwd_pending_;
    if (node < fwd_lo_) fwd_lo_ = node;
}

void PlacedTimer::mark_backward(qodg::NodeId node) {
    if (in_bwd_[node]) return;
    in_bwd_[node] = 1;
    ++bwd_pending_;
    if (node > bwd_hi_) bwd_hi_ = node;
}

double PlacedTimer::apply_changes() {
    // Settle any deferred tail scan first so the undo log opened below owns
    // every tail edit made during this move's lifetime (restore_last_move
    // then lands on exactly the pre-move bits).
    flush_tails();
    undo_delays_.clear();
    undo_arrivals_.clear();
    undo_tails_.clear();
    undo_latency_ = latency_;

    last_retimed_ = 0;
    fwd_lo_ = graph_->end();
    for (const DelayChange& change : scratch_changes_) {
        undo_delays_.push_back(DelayChange{change.node, delay_[change.node]});
        delay_[change.node] = change.delay;
        mark_forward(change.node);
        // tail[n] ignores n's own delay, but every predecessor's tail reads
        // delay[n]: seed the (deferred) backward scan there.
        for (const qodg::NodeId u : predecessors_->successors(change.node)) {
            mark_backward(u);
        }
    }

    // Forward cone: an ascending scan over the marked id span guarantees a
    // node's predecessors are final when it is recomputed (a changed node
    // only marks successors, which lie ahead of the scan).  The gather
    // matches the full pass above operation for operation — that is the
    // bit-exactness contract.
    const qodg::NodeId end = graph_->end();
    for (qodg::NodeId v = fwd_lo_; fwd_pending_ > 0; ++v) {
        if (!in_fwd_[v]) continue;
        in_fwd_[v] = 0;
        --fwd_pending_;
        ++last_retimed_;
        double fresh = delay_[0];
        if (v != 0) {
            fresh = -1.0;
            for (const qodg::NodeId u : predecessors_->successors(v)) {
                const double du = arrival_[u];
                if (du < 0.0) continue;
                const double candidate = du + delay_[v];
                if (candidate > fresh) fresh = candidate;
            }
        }
        if (fresh != arrival_[v]) {
            undo_arrivals_.push_back(DelayChange{v, arrival_[v]});
            arrival_[v] = fresh;
            for (const qodg::NodeId w : successors_->successors(v)) mark_forward(w);
        }
    }

    latency_ = arrival_[end];
    return latency_;
}

void PlacedTimer::flush_tails() {
    if (bwd_pending_ == 0) return;
    // Backward cone, mirror-image of the forward scan (descending ids,
    // successors final).  Stale seeds from a restored move recompute to the
    // values already in place and fall out without propagating.
    const qodg::NodeId end = graph_->end();
    qodg::NodeId v = bwd_hi_;
    while (bwd_pending_ > 0) {
        if (in_bwd_[v]) {
            in_bwd_[v] = 0;
            --bwd_pending_;
            double fresh = 0.0;
            if (v != end) {
                double acc = -std::numeric_limits<double>::infinity();
                for (const qodg::NodeId w : successors_->successors(v)) {
                    const double candidate = delay_[w] + tail_[w];
                    if (candidate > acc) acc = candidate;
                }
                fresh = std::isfinite(acc) ? acc : 0.0;
            }
            if (fresh != tail_[v]) {
                undo_tails_.push_back(DelayChange{v, tail_[v]});
                tail_[v] = fresh;
                for (const qodg::NodeId u : predecessors_->successors(v)) {
                    mark_backward(u);
                }
            }
        }
        if (v == 0) break;
        --v;
    }
    bwd_hi_ = 0;
}

std::string PlacedTimer::audit() {
    flush_tails();
    const qodg::NodeId end = graph_->end();
    const qodg::LongestPath reference = graph_->longest_path(delay_);
    for (std::size_t v = 0; v < arrival_.size(); ++v) {
        if (arrival_[v] != reference.distance[v]) {
            return "placed: arrival[" + std::to_string(v) + "] = " +
                   std::to_string(arrival_[v]) + " diverges from the "
                   "from-scratch longest path " +
                   std::to_string(reference.distance[v]);
        }
    }
    for (qodg::NodeId v = end + 1; v-- > 0;) {
        double fresh = 0.0;
        if (v != end) {
            double acc = -std::numeric_limits<double>::infinity();
            for (const qodg::NodeId w : successors_->successors(v)) {
                const double candidate = delay_[w] + tail_[w];
                if (candidate > acc) acc = candidate;
            }
            fresh = std::isfinite(acc) ? acc : 0.0;
        }
        if (tail_[v] != fresh) {
            return "placed: tail[" + std::to_string(v) + "] = " +
                   std::to_string(tail_[v]) + " violates the downstream "
                   "recurrence (expected " + std::to_string(fresh) + ")";
        }
    }
    if (latency_ != arrival_[end]) {
        return "placed: cached latency " + std::to_string(latency_) +
               " != arrival at end node " + std::to_string(arrival_[end]);
    }
    return {};
}

double PlacedTimer::restore_last_move() {
    // Reverse replay: a cell written twice (the deferred tail scan can
    // revisit a node across flushes) must end on its oldest logged value.
    for (auto it = undo_tails_.rbegin(); it != undo_tails_.rend(); ++it) {
        tail_[it->node] = it->delay;
    }
    for (auto it = undo_arrivals_.rbegin(); it != undo_arrivals_.rend(); ++it) {
        arrival_[it->node] = it->delay;
    }
    for (auto it = undo_delays_.rbegin(); it != undo_delays_.rend(); ++it) {
        delay_[it->node] = it->delay;
    }
    latency_ = undo_latency_;
    last_retimed_ = undo_arrivals_.size();
    last_kind_ = LastMove::None;
    return latency_;
}

} // namespace leqa::core
