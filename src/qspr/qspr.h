/// \file qspr.h
/// \brief QSPR: the detailed scheduling / placement / routing baseline.
///
/// Re-implementation of the role played by the paper's QSPR tool (Dousti &
/// Pedram, DATE 2012), minimally adapted to the tiled architecture exactly
/// as the paper describes (§4.1).  It produces the "actual" latency that
/// LEQA's estimate is judged against:
///
///   - **placement**: every logical qubit gets a home ULB (centered block
///     by default); occupancy is one qubit per ULB;
///   - **scheduling**: operations issue in dependency (program) order; an
///     op starts when all operand qubits are free and its host ULB is idle
///     (this is the dataflow schedule the QODG induces);
///   - **routing**: for a CNOT both qubits travel to a meeting ULB near the
///     topology midpoint of their homes via maze (or fixed shortest-path)
///     routes on the fabric topology; every hop reserves a channel-segment
///     slot with capacity Nc, so congested segments serialize traffic (the
///     behaviour Eq. 8 models);
///   - one-qubit ops run in the qubit's home ULB, or hop to the nearest
///     free ULB when the home is occupied by an in-flight operation;
///   - after a CNOT the target qubit stays at the meeting ULB and the
///     control is evicted to the nearest free ULB.
///
/// The run is fully deterministic for a given (circuit, params, options).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "fabric/geometry.h"
#include "fabric/params.h"
#include "qspr/channels.h"
#include "qspr/placement.h"
#include "qspr/router.h"

namespace leqa::qspr {

/// Operation issue order of the list scheduler.
enum class SchedulePolicy {
    /// Dependency (program) order: the dataflow schedule the QODG induces.
    ProgramOrder,
    /// Classic critical-path list scheduling: ready operations issue by
    /// descending downstream-delay priority.
    CriticalPathPriority,
};

[[nodiscard]] SchedulePolicy parse_schedule_policy(const std::string& name);
[[nodiscard]] std::string schedule_policy_name(SchedulePolicy policy);

struct QsprOptions {
    PlacementStrategy placement = PlacementStrategy::CenteredBlock;
    /// Detailed congestion-aware maze routing by default (the behaviour of
    /// the original tool); Xy is the fast congestion-oblivious variant.
    RoutingAlgorithm routing = RoutingAlgorithm::Maze;
    SchedulePolicy schedule = SchedulePolicy::ProgramOrder;
    std::uint64_t seed = 1;           ///< used by random placement
    bool collect_schedule = false;    ///< record per-op start/finish times
    /// Explicit initial placement: when non-empty it must hold one
    /// distinct, in-range home ULB per logical qubit and takes precedence
    /// over `placement`/`seed`.  This is the handoff point for optimized
    /// placements (core::optimize_placement) into the detailed mapper.
    std::vector<fabric::UlbId> initial_homes;
};

/// Per-operation schedule record (optional output).
struct ScheduledOp {
    std::size_t gate_index = 0;
    double start_us = 0.0;
    double finish_us = 0.0;
    fabric::UlbId ulb = 0;
};

struct QsprStats {
    std::uint64_t one_qubit_ops = 0;
    std::uint64_t cnot_ops = 0;
    std::uint64_t total_hops = 0;       ///< data-motion hops (incl. evictions)
    std::uint64_t evictions = 0;        ///< control-qubit evictions after CNOTs
    std::uint64_t relocations = 0;      ///< one-qubit ops that had to move
    double total_route_us = 0.0;        ///< time spent in channels
    ChannelStats channels;              ///< congestion counters

    [[nodiscard]] std::string to_string() const;
};

struct QsprResult {
    double latency_us = 0.0;            ///< the "actual delay" of Table 2
    QsprStats stats;
    std::vector<ScheduledOp> schedule;  ///< filled when collect_schedule
};

class QsprMapper {
public:
    QsprMapper(const fabric::PhysicalParams& params, QsprOptions options = {});

    /// Map an FT circuit onto the fabric and return its actual latency.
    /// Throws InputError if the circuit is not FT-synthesized or has more
    /// qubits than the fabric has ULBs.
    [[nodiscard]] QsprResult map(const circuit::Circuit& circ) const;

private:
    fabric::PhysicalParams params_;
    QsprOptions options_;
};

} // namespace leqa::qspr
