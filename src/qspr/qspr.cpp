#include "qspr/qspr.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "qodg/qodg.h"
#include "util/error.h"
#include "util/strings.h"

namespace leqa::qspr {

using fabric::SegmentId;
using fabric::UlbCoord;
using fabric::UlbId;

SchedulePolicy parse_schedule_policy(const std::string& name) {
    const std::string lowered = util::to_lower(name);
    if (lowered == "program" || lowered == "program-order") {
        return SchedulePolicy::ProgramOrder;
    }
    if (lowered == "priority" || lowered == "critical-path") {
        return SchedulePolicy::CriticalPathPriority;
    }
    throw util::InputError("unknown schedule policy: " + name);
}

std::string schedule_policy_name(SchedulePolicy policy) {
    switch (policy) {
        case SchedulePolicy::ProgramOrder: return "program-order";
        case SchedulePolicy::CriticalPathPriority: return "critical-path";
    }
    return "?";
}

std::string QsprStats::to_string() const {
    std::ostringstream out;
    out << "1q ops: " << one_qubit_ops << ", cnots: " << cnot_ops
        << ", hops: " << total_hops << ", evictions: " << evictions
        << ", relocations: " << relocations
        << ", route time: " << total_route_us << " us"
        << ", delayed hops: " << channels.delayed_hops
        << ", channel wait: " << channels.total_wait_us << " us"
        << ", max slot occupancy: " << channels.max_occupancy;
    return out.str();
}

namespace {

/// Mutable mapping state for one QSPR run.
class RunState {
public:
    RunState(const circuit::Circuit& circ, const fabric::PhysicalParams& params,
             const QsprOptions& options)
        : circ_(circ),
          params_(params),
          options_(options),
          geometry_(fabric::make_topology(params)),
          topology_(geometry_.topology()),
          channels_(topology_.num_segments(), params.nc, params.t_move_us),
          router_(topology_),
          qubit_free_(circ.num_qubits(), 0.0),
          ulb_busy_(topology_.num_ulbs(), 0.0),
          occupant_(topology_.num_ulbs(), kNoQubit) {
        const auto homes =
            options.initial_homes.empty()
                ? initial_placement(geometry_, circ.num_qubits(), options.placement,
                                    options.seed)
                : options.initial_homes;
        LEQA_REQUIRE(homes.size() == circ.num_qubits(),
                     "initial_homes must hold one ULB per logical qubit");
        home_.resize(circ.num_qubits());
        for (circuit::Qubit q = 0; q < circ.num_qubits(); ++q) {
            const fabric::UlbId home = homes[q];
            LEQA_REQUIRE(home >= 0 &&
                             static_cast<std::size_t>(home) < topology_.num_ulbs(),
                         "initial_homes ULB out of range");
            LEQA_REQUIRE(occupant_[static_cast<std::size_t>(home)] == kNoQubit,
                         "initial_homes assigns two qubits to one ULB");
            home_[q] = home;
            occupant_[static_cast<std::size_t>(home)] = static_cast<std::int32_t>(q);
        }
    }

    QsprResult run() {
        QsprResult result;
        if (options_.collect_schedule) result.schedule.reserve(circ_.size());

        const auto execute = [&](std::size_t gate_index) {
            const circuit::Gate& gate = circ_.gate(gate_index);
            ScheduledOp op;
            op.gate_index = gate_index;
            if (gate.kind == circuit::GateKind::Cnot) {
                execute_cnot(gate, op);
                ++stats_.cnot_ops;
            } else {
                execute_one_qubit(gate, op);
                ++stats_.one_qubit_ops;
            }
            makespan_ = std::max(makespan_, op.finish_us);
            if (options_.collect_schedule) result.schedule.push_back(op);
        };

        if (options_.schedule == SchedulePolicy::ProgramOrder) {
            for (std::size_t i = 0; i < circ_.size(); ++i) execute(i);
        } else {
            run_priority_schedule(execute);
        }

        stats_.channels = channels_.stats();
        result.latency_us = makespan_;
        result.stats = stats_;
        return result;
    }

private:
    static constexpr std::int32_t kNoQubit = -1;

    void execute_one_qubit(const circuit::Gate& gate, ScheduledOp& op) {
        const circuit::Qubit q = gate.targets()[0];
        const double ready = qubit_free_[q];
        UlbId host = home_[q];

        // The home ULB may still be executing an earlier operation (a CNOT
        // that met there).  Per the paper, the qubit then moves to the
        // nearest free ULB.
        double start = std::max(ready, ulb_busy_[static_cast<std::size_t>(host)]);
        if (ulb_busy_[static_cast<std::size_t>(host)] > ready + 1e-9) {
            const UlbId refuge = nearest_ulb(topology_.ulb_coord(host), ready, q, q);
            if (refuge != host) {
                ++stats_.relocations;
                const double arrival = move_qubit(q, refuge, ready);
                start = std::max(arrival, ulb_busy_[static_cast<std::size_t>(refuge)]);
                host = refuge;
            }
        }

        const double finish = start + params_.delay_us(gate.kind);
        qubit_free_[q] = finish;
        ulb_busy_[static_cast<std::size_t>(host)] = finish;
        op.start_us = start;
        op.finish_us = finish;
        op.ulb = host;
    }

    void execute_cnot(const circuit::Gate& gate, ScheduledOp& op) {
        const circuit::Qubit control = gate.controls()[0];
        const circuit::Qubit target = gate.targets()[0];
        const UlbCoord c_home = topology_.ulb_coord(home_[control]);
        const UlbCoord t_home = topology_.ulb_coord(home_[target]);

        // Meeting ULB: nearest ULB to the midpoint that is either empty or
        // houses one of the two operands.
        const double earliest = std::min(qubit_free_[control], qubit_free_[target]);
        const UlbId meeting =
            nearest_ulb(topology_.midpoint(c_home, t_home), earliest, control, target);

        // Both qubits travel (each departs when it is individually free).
        const double arrive_c = move_qubit(control, meeting, qubit_free_[control]);
        const double arrive_t = move_qubit(target, meeting, qubit_free_[target]);

        const double start =
            std::max({arrive_c, arrive_t, ulb_busy_[static_cast<std::size_t>(meeting)]});
        const double finish = start + params_.d_cnot_us;
        ulb_busy_[static_cast<std::size_t>(meeting)] = finish;

        // Target stays at the meeting ULB; control is evicted to the
        // nearest free ULB.
        qubit_free_[target] = finish;
        set_home(target, meeting);

        const UlbId refuge =
            nearest_ulb(topology_.ulb_coord(meeting), finish, control, control);
        double control_free = finish;
        if (refuge != meeting) {
            ++stats_.evictions;
            control_free = move_qubit(control, refuge, finish);
        } else {
            set_home(control, meeting); // degenerate: fabric fully busy
        }
        qubit_free_[control] = control_free;

        op.start_us = start;
        op.finish_us = finish;
        op.ulb = meeting;
    }

    /// Critical-path list scheduling: ready operations (all QODG
    /// predecessors executed) issue in descending downstream-delay order.
    /// Runs on the QODG's CSR structure and the shared graph kernels.
    void run_priority_schedule(const std::function<void(std::size_t)>& execute) {
        const qodg::Qodg deps(circ_);
        const leqa::graph::CsrDigraph& csr = deps.csr();
        const std::vector<double> delays = deps.node_delays(
            [&](circuit::GateKind kind) { return params_.delay_us(kind); });
        const std::vector<double> priority = leqa::graph::downstream_delay(csr, delays);

        // Remaining-predecessor counts per node.
        std::vector<std::uint32_t> pending = csr.in_degrees();

        // Max-heap on (priority, lower gate index as tie-break).
        using Entry = std::pair<double, qodg::NodeId>;
        const auto worse = [](const Entry& a, const Entry& b) {
            if (a.first != b.first) return a.first < b.first;
            return a.second > b.second;
        };
        std::priority_queue<Entry, std::vector<Entry>, decltype(worse)> ready(worse);

        const auto release = [&](qodg::NodeId node) {
            for (const qodg::NodeId v : csr.successors(node)) {
                if (--pending[v] == 0 && deps.node(v).kind == qodg::NodeKind::Op) {
                    ready.push({priority[v], v});
                }
            }
        };
        release(deps.start());
        while (!ready.empty()) {
            const qodg::NodeId node = ready.top().second;
            ready.pop();
            execute(deps.node(node).gate_index);
            release(node);
        }
    }

    /// Route a qubit to \p destination departing at \p depart; updates its
    /// home/occupancy and returns arrival time.
    double move_qubit(circuit::Qubit q, UlbId destination, double depart) {
        const UlbId source = home_[q];
        if (source == destination) return depart;
        const UlbCoord from = topology_.ulb_coord(source);
        const UlbCoord to = topology_.ulb_coord(destination);
        if (options_.routing == RoutingAlgorithm::Maze) {
            router_.route(from, to, depart, channels_, path_);
        } else {
            topology_.route(from, to, path_);
        }
        const double arrival = channels_.route(path_, depart);
        stats_.total_hops += path_.size();
        stats_.total_route_us += arrival - depart;
        set_home(q, destination);
        return arrival;
    }

    void set_home(circuit::Qubit q, UlbId destination) {
        const UlbId source = home_[q];
        if (source == destination) return;
        if (occupant_[static_cast<std::size_t>(source)] == static_cast<std::int32_t>(q)) {
            occupant_[static_cast<std::size_t>(source)] = kNoQubit;
        }
        home_[q] = destination;
        occupant_[static_cast<std::size_t>(destination)] = static_cast<std::int32_t>(q);
    }

    /// Nearest ULB around \p center that is empty or houses \p a or \p b,
    /// and idle by \p time.  Falls back to the relaxed rule (ignore busy)
    /// and finally to \p center itself on a saturated fabric.  A qubit
    /// looking for room for itself passes itself as both \p a and \p b.
    UlbId nearest_ulb(UlbCoord center, double time, circuit::Qubit a,
                      circuit::Qubit b) {
        const int max_radius = std::max(topology_.width(), topology_.height());
        for (int pass = 0; pass < 2; ++pass) {
            const bool require_idle = pass == 0;
            for (int r = 0; r <= max_radius; ++r) {
                topology_.ring(center, r, ring_);
                for (const UlbCoord c : ring_) {
                    const auto id = topology_.ulb_id(c);
                    const auto occupant = occupant_[static_cast<std::size_t>(id)];
                    const bool available = occupant == kNoQubit ||
                                           occupant == static_cast<std::int32_t>(a) ||
                                           occupant == static_cast<std::int32_t>(b);
                    if (!available) continue;
                    if (require_idle &&
                        ulb_busy_[static_cast<std::size_t>(id)] > time + 1e-9) {
                        continue;
                    }
                    return id;
                }
            }
        }
        return topology_.ulb_id(center);
    }

    const circuit::Circuit& circ_;
    const fabric::PhysicalParams& params_;
    const QsprOptions& options_;
    fabric::FabricGeometry geometry_; ///< the handle initial_placement takes
    const fabric::Topology& topology_;
    ChannelReservations channels_;
    MazeRouter router_;
    std::vector<double> qubit_free_;
    std::vector<double> ulb_busy_;
    std::vector<std::int32_t> occupant_;
    std::vector<UlbId> home_;
    std::vector<UlbCoord> ring_; ///< nearest_ulb's ring buffer, reused all map
    std::vector<SegmentId> path_; ///< move_qubit's route buffer, reused all map
    QsprStats stats_;
    double makespan_ = 0.0;
};

} // namespace

QsprMapper::QsprMapper(const fabric::PhysicalParams& params, QsprOptions options)
    : params_(params), options_(options) {
    params_.validate();
}

QsprResult QsprMapper::map(const circuit::Circuit& circ) const {
    LEQA_REQUIRE(circ.is_ft(),
                 "QSPR maps FT circuits only; run synth::ft_synthesize first");
    LEQA_REQUIRE(circ.num_qubits() <= static_cast<std::size_t>(params_.area()),
                 "circuit has more logical qubits than the fabric has ULBs");
    if (circ.empty()) return QsprResult{};
    RunState state(circ, params_, options_);
    return state.run();
}

} // namespace leqa::qspr
