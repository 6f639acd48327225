// Tests for the QSPR baseline mapper: channel reservations honor Nc,
// placement strategies, schedule validity (dependencies respected), and
// determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "fabric/topology.h"
#include "qspr/channels.h"
#include "qspr/placement.h"
#include "qspr/qspr.h"
#include "synth/ft_synth.h"
#include "util/error.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace lf = leqa::fabric;
namespace lq = leqa::qspr;
using leqa::util::InputError;

namespace {

lf::PhysicalParams small_params(int width = 8, int height = 8) {
    lf::PhysicalParams params;
    params.width = width;
    params.height = height;
    return params;
}

/// The channel table's rule kept on a per-segment std::map, as a reference:
/// a hop takes the first slot starting at or after its arrival that has
/// spare capacity.
class MapChannels {
public:
    MapChannels(std::size_t num_segments, int capacity, double slot_us)
        : occupancy_(num_segments), capacity_(capacity), slot_us_(slot_us) {}

    double reserve(lf::SegmentId segment, double earliest_us) {
        auto& slots = occupancy_[static_cast<std::size_t>(segment)];
        auto slot = static_cast<std::int64_t>(std::ceil(earliest_us / slot_us_ - 1e-9));
        auto it = slots.lower_bound(slot);
        while (it != slots.end() && it->first == slot && it->second >= capacity_) {
            ++slot;
            ++it;
        }
        const int count = ++slots[slot];
        stats.max_occupancy = std::max(stats.max_occupancy, count);
        ++stats.reservations;
        const double start = static_cast<double>(slot) * slot_us_;
        if (start > earliest_us + 1e-9) {
            const double wait = start - earliest_us;
            if (wait >= slot_us_ - 1e-9) ++stats.delayed_hops;
            stats.total_wait_us += wait;
        }
        return start;
    }

    [[nodiscard]] const std::map<std::int64_t, int>& slots(lf::SegmentId segment) const {
        return occupancy_[static_cast<std::size_t>(segment)];
    }

    lq::ChannelStats stats;

private:
    std::vector<std::map<std::int64_t, int>> occupancy_;
    int capacity_;
    double slot_us_;
};

/// Runs `call` and expects an InputError whose message names Tmove.
template <typename Call>
void expect_names_tmove(const Call& call) {
    try {
        call();
        ADD_FAILURE() << "no InputError";
    } catch (const InputError& error) {
        EXPECT_NE(std::string(error.what()).find("Tmove (t_move_us)"), std::string::npos)
            << error.what();
    }
}

} // namespace

// --------------------------------------------------------------- channels --

TEST(Channels, UncongestedPassesImmediately) {
    lq::ChannelReservations channels(4, 2, 100.0);
    EXPECT_DOUBLE_EQ(channels.reserve(0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(channels.reserve(0, 0.0), 0.0); // capacity 2
    EXPECT_DOUBLE_EQ(channels.reserve(1, 0.0), 0.0); // other segment independent
}

TEST(Channels, CapacityForcesNextSlot) {
    lq::ChannelReservations channels(1, 2, 100.0);
    EXPECT_DOUBLE_EQ(channels.reserve(0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(channels.reserve(0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(channels.reserve(0, 0.0), 100.0); // third waits a slot
    EXPECT_DOUBLE_EQ(channels.reserve(0, 0.0), 100.0);
    EXPECT_DOUBLE_EQ(channels.reserve(0, 0.0), 200.0);
    EXPECT_EQ(channels.stats().delayed_hops, 3u);
    EXPECT_EQ(channels.stats().max_occupancy, 2);
}

TEST(Channels, MidSlotArrivalRoundsUp) {
    lq::ChannelReservations channels(1, 1, 100.0);
    EXPECT_DOUBLE_EQ(channels.reserve(0, 50.0), 100.0);  // next boundary
    EXPECT_DOUBLE_EQ(channels.reserve(0, 100.0), 200.0); // slot 1 now full
}

TEST(Channels, RouteAccumulatesHops) {
    lq::ChannelReservations channels(3, 5, 100.0);
    const std::vector<lf::SegmentId> path{0, 1, 2};
    const double arrival = channels.route(path, 0.0);
    EXPECT_DOUBLE_EQ(arrival, 300.0);
    EXPECT_EQ(channels.stats().reservations, 3u);
}

TEST(Channels, RouteQueuesBehindTraffic) {
    lq::ChannelReservations channels(2, 1, 100.0);
    const std::vector<lf::SegmentId> path{0, 1};
    EXPECT_DOUBLE_EQ(channels.route(path, 0.0), 200.0);
    // Second qubit following the same path gets pipelined one slot behind.
    EXPECT_DOUBLE_EQ(channels.route(path, 0.0), 300.0);
}

TEST(Channels, OutOfOrderReservationsMatchAMapModel) {
    // Reservations arrive in random time order, so many land before slots
    // already held and insert mid-table; a map keeps every segment's slots
    // sorted for free.  Each start, every slot's count and the stats must
    // agree with it.
    constexpr std::size_t kSegments = 7;
    constexpr double kSlotUs = 100.0;
    for (const int capacity : {1, 2, 3}) {
        lq::ChannelReservations table(kSegments, capacity, kSlotUs);
        MapChannels model(kSegments, capacity, kSlotUs);
        leqa::util::Rng rng(static_cast<std::uint64_t>(400 + capacity));
        for (int i = 0; i < 3000; ++i) {
            const auto segment = static_cast<lf::SegmentId>(rng.index(kSegments));
            // Half-microsecond steps over 200 slots: slot starts and
            // mid-slot arrivals alike.
            const double earliest = 0.5 * static_cast<double>(rng.index(40000));
            ASSERT_EQ(table.reserve(segment, earliest), model.reserve(segment, earliest))
                << "capacity " << capacity << " reservation " << i;
        }
        for (lf::SegmentId segment = 0; segment < static_cast<lf::SegmentId>(kSegments);
             ++segment) {
            const auto& slots = model.slots(segment);
            ASSERT_FALSE(slots.empty());
            for (std::int64_t slot = 0; slot <= slots.rbegin()->first + 1; ++slot) {
                const auto it = slots.find(slot);
                const int expected = it == slots.end() ? 0 : it->second;
                const double start = static_cast<double>(slot) * kSlotUs;
                EXPECT_EQ(table.occupancy_at(segment, start), expected)
                    << "segment " << segment << " slot " << slot;
                EXPECT_EQ(table.occupancy_at(segment, start + 0.5 * kSlotUs), expected)
                    << "segment " << segment << " slot " << slot;
            }
        }
        EXPECT_EQ(table.stats().reservations, model.stats.reservations);
        EXPECT_EQ(table.stats().delayed_hops, model.stats.delayed_hops);
        EXPECT_EQ(table.stats().total_wait_us, model.stats.total_wait_us);
        EXPECT_EQ(table.stats().max_occupancy, model.stats.max_occupancy);
        EXPECT_EQ(table.stats().max_occupancy, capacity);
    }
}

TEST(Channels, InvalidArguments) {
    lq::ChannelReservations channels(1, 1, 100.0);
    EXPECT_THROW((void)channels.reserve(5, 0.0), InputError);
    EXPECT_THROW((void)channels.reserve(0, -1.0), InputError);
    EXPECT_THROW(lq::ChannelReservations(1, 0, 100.0), InputError);
}

TEST(Channels, ReserveSlotPastInt64NamesTmove) {
    // 5440 us over a 1e-300 us slot is about 5e303 slots, far past the
    // 2^63 an int64_t slot index holds.
    lq::ChannelReservations channels(1, 1, 1e-300);
    EXPECT_DOUBLE_EQ(channels.reserve(0, 0.0), 0.0);
    expect_names_tmove([&] { (void)channels.reserve(0, 5440.0); });
    // Just below 2^63 slots still maps.
    lq::ChannelReservations wide(1, 1, 1.0);
    EXPECT_DOUBLE_EQ(wide.reserve(0, 0x1p62), 0x1p62);
    expect_names_tmove([&] { (void)wide.reserve(0, 0x1p63); });
}

TEST(Channels, OccupancySlotPastInt64NamesTmove) {
    const lq::ChannelReservations channels(1, 1, 1e-300);
    EXPECT_EQ(channels.occupancy_at(0, 0.0), 0);
    expect_names_tmove([&] { (void)channels.occupancy_at(0, 5440.0); });
    const lq::ChannelReservations wide(1, 1, 1.0);
    EXPECT_EQ(wide.occupancy_at(0, 0x1p62), 0);
    expect_names_tmove([&] { (void)wide.occupancy_at(0, 0x1p63); });
}

// -------------------------------------------------------------- placement --

TEST(Placement, StrategiesProduceDistinctHomes) {
    const lf::FabricGeometry geo(lf::make_topology(lf::TopologyKind::Grid, 10, 10));
    for (const auto strategy :
         {lq::PlacementStrategy::CenteredBlock, lq::PlacementStrategy::RowMajor,
          lq::PlacementStrategy::Random}) {
        const auto homes = lq::initial_placement(geo, 37, strategy, 7);
        EXPECT_EQ(homes.size(), 37u);
        const std::set<lf::UlbId> unique(homes.begin(), homes.end());
        EXPECT_EQ(unique.size(), 37u) << lq::placement_strategy_name(strategy);
        for (const auto id : homes) {
            EXPECT_GE(id, 0);
            EXPECT_LT(static_cast<std::size_t>(id), geo.topology().num_ulbs());
        }
    }
}

TEST(Placement, CenteredBlockIsCentered) {
    const lf::FabricGeometry geo(lf::make_topology(lf::TopologyKind::Grid, 11, 11));
    const auto homes =
        lq::initial_placement(geo, 9, lq::PlacementStrategy::CenteredBlock, 1);
    // 9 qubits -> 3x3 block centered at (4..6, 4..6).
    for (const auto id : homes) {
        const auto c = geo.topology().ulb_coord(id);
        EXPECT_GE(c.x, 4);
        EXPECT_LE(c.x, 6);
        EXPECT_GE(c.y, 4);
        EXPECT_LE(c.y, 6);
    }
}

TEST(Placement, RandomIsSeedDeterministic) {
    const lf::FabricGeometry geo(lf::make_topology(lf::TopologyKind::Grid, 10, 10));
    const auto a = lq::initial_placement(geo, 20, lq::PlacementStrategy::Random, 5);
    const auto b = lq::initial_placement(geo, 20, lq::PlacementStrategy::Random, 5);
    const auto c = lq::initial_placement(geo, 20, lq::PlacementStrategy::Random, 6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Placement, FabricTooSmallThrows) {
    const lf::FabricGeometry geo(lf::make_topology(lf::TopologyKind::Grid, 3, 3));
    EXPECT_THROW(
        (void)lq::initial_placement(geo, 10, lq::PlacementStrategy::RowMajor, 1),
        InputError);
}

TEST(Placement, StrategyNameRoundTrip) {
    for (const auto strategy :
         {lq::PlacementStrategy::CenteredBlock, lq::PlacementStrategy::RowMajor,
          lq::PlacementStrategy::Random}) {
        EXPECT_EQ(lq::parse_placement_strategy(lq::placement_strategy_name(strategy)),
                  strategy);
    }
    EXPECT_THROW((void)lq::parse_placement_strategy("bogus"), InputError);
}

// ------------------------------------------------------------------- qspr --

TEST(Qspr, RejectsNonFtCircuit) {
    lc::Circuit circ(3);
    circ.toffoli(0, 1, 2);
    const lq::QsprMapper mapper(small_params());
    EXPECT_THROW((void)mapper.map(circ), InputError);
}

TEST(Qspr, RejectsOversizedCircuit) {
    lc::Circuit circ(100);
    circ.h(0);
    const lq::QsprMapper mapper(small_params(3, 3));
    EXPECT_THROW((void)mapper.map(circ), InputError);
}

TEST(Qspr, EmptyCircuitHasZeroLatency) {
    const lc::Circuit circ(4);
    const lq::QsprMapper mapper(small_params());
    EXPECT_DOUBLE_EQ(mapper.map(circ).latency_us, 0.0);
}

TEST(Qspr, SingleGateLatencyIsGateDelay) {
    lc::Circuit circ(1);
    circ.h(0);
    const lq::QsprMapper mapper(small_params());
    const auto result = mapper.map(circ);
    EXPECT_DOUBLE_EQ(result.latency_us, 5440.0); // runs in place, no routing
    EXPECT_EQ(result.stats.one_qubit_ops, 1u);
}

TEST(Qspr, SequentialGatesAccumulate) {
    lc::Circuit circ(1);
    circ.h(0).t(0).h(0);
    const lq::QsprMapper mapper(small_params());
    EXPECT_DOUBLE_EQ(mapper.map(circ).latency_us, 5440.0 + 10940.0 + 5440.0);
}

TEST(Qspr, CnotIncludesTravelTime) {
    lc::Circuit circ(2);
    circ.cnot(0, 1);
    const auto params = small_params();
    const lq::QsprMapper mapper(params);
    const auto result = mapper.map(circ);
    // Both qubits sit adjacent in the centered block; they meet at the
    // midpoint, at least one travels >= 1 hop.
    EXPECT_GE(result.latency_us, params.d_cnot_us);
    EXPECT_LE(result.latency_us, params.d_cnot_us + 10 * params.t_move_us);
    EXPECT_EQ(result.stats.cnot_ops, 1u);
    EXPECT_GE(result.stats.total_hops, 1u);
}

TEST(Qspr, ScheduleRespectsDependencies) {
    lc::Circuit circ(4);
    leqa::util::Rng rng(3);
    for (int g = 0; g < 50; ++g) {
        const auto picks = rng.sample_without_replacement(4, 2);
        if (rng.chance(0.6)) {
            circ.cnot(static_cast<lc::Qubit>(picks[0]), static_cast<lc::Qubit>(picks[1]));
        } else {
            circ.t(static_cast<lc::Qubit>(picks[0]));
        }
    }
    lq::QsprOptions options;
    options.collect_schedule = true;
    const lq::QsprMapper mapper(small_params(12, 12), options);
    const auto result = mapper.map(circ);
    ASSERT_EQ(result.schedule.size(), circ.size());

    // Per-qubit program order must map to non-decreasing time intervals.
    std::vector<double> last_finish(4, 0.0);
    for (const auto& op : result.schedule) {
        const auto& gate = circ.gate(op.gate_index);
        EXPECT_LE(op.start_us + 1e-9, op.finish_us);
        for (const auto q : gate.qubits()) {
            EXPECT_GE(op.start_us + 1e-9, last_finish[q])
                << "gate " << op.gate_index << " starts before operand free";
        }
        for (const auto q : gate.qubits()) last_finish[q] = op.finish_us;
    }
    // Latency equals the max finish time.
    double makespan = 0.0;
    for (const auto& op : result.schedule) makespan = std::max(makespan, op.finish_us);
    EXPECT_DOUBLE_EQ(result.latency_us, makespan);
}

TEST(Qspr, DeterministicAcrossRuns) {
    lc::Circuit circ(6);
    leqa::util::Rng rng(8);
    for (int g = 0; g < 80; ++g) {
        const auto picks = rng.sample_without_replacement(6, 2);
        circ.cnot(static_cast<lc::Qubit>(picks[0]), static_cast<lc::Qubit>(picks[1]));
    }
    const lq::QsprMapper mapper(small_params());
    const auto a = mapper.map(circ);
    const auto b = mapper.map(circ);
    EXPECT_DOUBLE_EQ(a.latency_us, b.latency_us);
    EXPECT_EQ(a.stats.total_hops, b.stats.total_hops);
}

TEST(Qspr, LatencyAtLeastCriticalGateDelay) {
    // Routing can only add to the pure dependency-chain delay.
    lc::Circuit circ(2);
    circ.h(0).cnot(0, 1).t(1).cnot(0, 1).h(1);
    const auto params = small_params();
    const lq::QsprMapper mapper(params);
    const double floor_us = params.d_h_us + params.d_cnot_us + params.d_t_us +
                            params.d_cnot_us + params.d_h_us;
    EXPECT_GE(mapper.map(circ).latency_us, floor_us);
}

TEST(Qspr, CongestionIncreasesLatencyWhenNcDrops) {
    // Many disjoint CNOT pairs through a narrow fabric: tighter channel
    // capacity must not decrease the makespan.
    lc::Circuit circ(16);
    for (int round = 0; round < 4; ++round) {
        for (int i = 0; i < 8; ++i) {
            circ.cnot(static_cast<lc::Qubit>(i), static_cast<lc::Qubit>(15 - i));
        }
    }
    auto params_loose = small_params(16, 2);
    params_loose.nc = 8;
    auto params_tight = params_loose;
    params_tight.nc = 1;
    const auto loose = lq::QsprMapper(params_loose).map(circ);
    const auto tight = lq::QsprMapper(params_tight).map(circ);
    EXPECT_GE(tight.latency_us, loose.latency_us);
    EXPECT_GE(tight.stats.channels.delayed_hops, loose.stats.channels.delayed_hops);
}

TEST(Qspr, StatsToStringMentionsCounters) {
    lc::Circuit circ(2);
    circ.cnot(0, 1);
    const lq::QsprMapper mapper(small_params());
    const std::string text = mapper.map(circ).stats.to_string();
    EXPECT_NE(text.find("cnots: 1"), std::string::npos);
    EXPECT_NE(text.find("hops:"), std::string::npos);
}

TEST(Qspr, FtSynthesizedToffoliRunsEndToEnd) {
    lc::Circuit circ(3);
    circ.toffoli(0, 1, 2);
    const auto ft = leqa::synth::ft_synthesize(circ);
    const lq::QsprMapper mapper(small_params());
    const auto result = mapper.map(ft.circuit);
    EXPECT_GT(result.latency_us, 0.0);
    EXPECT_EQ(result.stats.cnot_ops, 6u);
    EXPECT_EQ(result.stats.one_qubit_ops, 9u);
}
