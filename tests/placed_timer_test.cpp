// Property tests for the placement-dependent timing model and the
// incremental re-timing engine (core/placed.h).  The load-bearing contract
// is *bit-exact parity*: after any sequence of swap/relocate moves the
// timer's arrivals and latency must equal a from-scratch
// Qodg::longest_path over the same delay vector down to the last bit, and
// re-applying a move must restore every arrival exactly.  The suite drives
// >= 10k randomized moves across grid, torus, and line fabrics to pin that
// contract down.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "benchgen/suite.h"
#include "core/placed.h"
#include "fabric/geometry.h"
#include "fabric/topology.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "qspr/placement.h"
#include "synth/ft_synth.h"
#include "util/error.h"
#include "util/rng.h"

namespace lc = leqa::core;
namespace lf = leqa::fabric;

namespace {

struct TestCircuit {
    leqa::circuit::Circuit ft;
    std::unique_ptr<leqa::qodg::Qodg> graph;
};

TestCircuit ft_bench(const std::string& bench) {
    TestCircuit out{
        leqa::synth::ft_synthesize(
            leqa::pipeline::parse_source("bench:" + bench).load())
            .circuit,
        nullptr};
    out.graph = std::make_unique<leqa::qodg::Qodg>(out.ft);
    return out;
}

lf::PhysicalParams params_for(lf::TopologyKind kind, int width, int height) {
    lf::PhysicalParams params;
    params.topology = kind;
    params.width = width;
    params.height = height;
    return params;
}

std::vector<lf::UlbId> random_homes(const lf::PhysicalParams& params,
                                    std::size_t num_qubits, std::uint64_t seed) {
    return leqa::qspr::initial_placement(
        lf::FabricGeometry(lf::make_topology(params)), num_qubits,
        leqa::qspr::PlacementStrategy::Random, seed);
}

/// Bitwise double equality (NaN-free domain; distinguishes -0.0 vs 0.0 the
/// same way the parity contract does: by representation).
bool bit_equal(double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

void expect_bit_equal(const std::vector<double>& got,
                      const std::vector<double>& want, const char* what) {
    ASSERT_EQ(got.size(), want.size()) << what;
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(bit_equal(got[i], want[i]))
            << what << " diverges at node " << i << ": " << got[i] << " vs "
            << want[i];
    }
}

/// The workhorse: random swap/relocate moves with full-recompute parity
/// checked after every single move, plus bound soundness along the way.
void drive_moves(const TestCircuit& tc, const lf::PhysicalParams& params,
                 std::size_t moves, std::uint64_t seed) {
    lc::PlacedTimer timer(*tc.graph, tc.ft, params,
                          random_homes(params, tc.ft.num_qubits(), seed));
    leqa::util::Rng rng(seed * 977u + 13u);
    const std::size_t nq = tc.ft.num_qubits();
    const std::size_t nu = timer.num_ulbs();

    std::vector<lf::UlbId> free_ulbs;
    for (lf::UlbId ulb = 0; ulb < static_cast<lf::UlbId>(nu); ++ulb) {
        if (timer.occupant(ulb) == lc::PlacedTimer::kNoQubit) {
            free_ulbs.push_back(ulb);
        }
    }

    for (std::size_t move = 0; move < moves; ++move) {
        const bool relocate = !free_ulbs.empty() && rng.chance(0.4);
        double latency = 0.0;
        if (relocate) {
            const std::size_t q = rng.index(nq);
            const std::size_t slot = rng.index(free_ulbs.size());
            const lf::UlbId from = timer.homes()[q];
            const lf::UlbId to = free_ulbs[slot];
            const double bound = timer.relocate_lower_bound(q, to);
            latency = timer.apply_relocate(q, to);
            EXPECT_LE(bound, latency) << "relocate bound not a lower bound";
            free_ulbs[slot] = from;
        } else {
            const std::size_t q1 = rng.index(nq);
            std::size_t q2 = rng.index(nq - 1);
            if (q2 >= q1) ++q2;
            const double bound = timer.swap_lower_bound(q1, q2);
            latency = timer.apply_swap(q1, q2);
            EXPECT_LE(bound, latency) << "swap bound not a lower bound";
        }

        const leqa::qodg::LongestPath full = tc.graph->longest_path(timer.delays());
        ASSERT_TRUE(bit_equal(latency, full.length))
            << "latency diverges from full longest_path at move " << move;
        ASSERT_TRUE(bit_equal(timer.latency_us(), full.length));
        expect_bit_equal(timer.arrivals(), full.distance, "arrivals");
    }
}

} // namespace

// ------------------------------------------------------------ delay model --

TEST(PlacedDelays, MatchesTimerAndHopModel) {
    const TestCircuit tc = ft_bench("ham3");
    const lf::PhysicalParams params = params_for(lf::TopologyKind::Grid, 6, 6);
    const auto topology = lf::make_topology(params);
    const std::vector<lf::UlbId> homes =
        random_homes(params, tc.ft.num_qubits(), 3);

    const std::vector<double> delays = lc::placed_node_delays(
        *tc.graph, tc.ft, *topology, params, homes);
    lc::PlacedTimer timer(*tc.graph, tc.ft, params, homes);
    expect_bit_equal(timer.delays(), delays, "delays");

    // Spot-check the model: start/end free, a CNOT pays hops, a one-qubit
    // gate pays the fixed routing latency.
    ASSERT_EQ(delays.size(), tc.graph->num_nodes());
    EXPECT_EQ(delays.front(), 0.0);
    EXPECT_EQ(delays.back(), 0.0);
    for (std::size_t i = 0; i < tc.graph->num_ops(); ++i) {
        const leqa::circuit::Gate& gate = tc.ft.gates()[i];
        const double delay = delays[tc.graph->node_of_gate(i)];
        if (gate.kind == leqa::circuit::GateKind::Cnot) {
            const int hops = topology->distance(
                topology->ulb_coord(homes[gate.controls()[0]]),
                topology->ulb_coord(homes[gate.targets()[0]]));
            EXPECT_EQ(delay, params.d_cnot_us + params.t_move_us * hops);
        } else {
            EXPECT_EQ(delay, params.delay_us(gate.kind) +
                                 params.one_qubit_routing_latency_us());
        }
    }

    // And the initial latency is the full longest path over those delays.
    EXPECT_EQ(timer.latency_us(), tc.graph->longest_path(delays).length);
}

// -------------------------------------------------- 10k-move parity sweep --

TEST(PlacedTimer, ParityGrid) {
    const TestCircuit ham3 = ft_bench("ham3");
    const TestCircuit adder = ft_bench("8bitadder");
    drive_moves(ham3, params_for(lf::TopologyKind::Grid, 5, 5), 2200, 11);
    drive_moves(adder, params_for(lf::TopologyKind::Grid, 7, 7), 1400, 12);
}

TEST(PlacedTimer, ParityTorus) {
    const TestCircuit ham3 = ft_bench("ham3");
    const TestCircuit adder = ft_bench("8bitadder");
    drive_moves(ham3, params_for(lf::TopologyKind::Torus, 5, 5), 2200, 21);
    drive_moves(adder, params_for(lf::TopologyKind::Torus, 6, 6), 1400, 22);
}

TEST(PlacedTimer, ParityLine) {
    const TestCircuit ham3 = ft_bench("ham3");
    const TestCircuit adder = ft_bench("8bitadder");
    drive_moves(ham3, params_for(lf::TopologyKind::Line, 9, 1), 2200, 31);
    drive_moves(adder, params_for(lf::TopologyKind::Line, 30, 1), 1400, 32);
}

// ------------------------------------------------------- revert round-trip --

TEST(PlacedTimer, SwapRevertRestoresStateBitForBit) {
    const TestCircuit tc = ft_bench("8bitadder");
    const lf::PhysicalParams params = params_for(lf::TopologyKind::Grid, 7, 7);
    lc::PlacedTimer timer(*tc.graph, tc.ft, params,
                          random_homes(params, tc.ft.num_qubits(), 5));
    leqa::util::Rng rng(42);
    const std::size_t nq = tc.ft.num_qubits();

    for (int round = 0; round < 200; ++round) {
        const std::vector<double> arrivals = timer.arrivals();
        const std::vector<double> tails = timer.tails();
        const std::vector<lf::UlbId> homes = timer.homes();
        const double latency = timer.latency_us();

        const std::size_t q1 = rng.index(nq);
        std::size_t q2 = rng.index(nq - 1);
        if (q2 >= q1) ++q2;
        (void)timer.apply_swap(q1, q2);
        (void)timer.apply_swap(q1, q2); // the inverse move

        EXPECT_EQ(timer.homes(), homes);
        ASSERT_TRUE(bit_equal(timer.latency_us(), latency));
        expect_bit_equal(timer.arrivals(), arrivals, "arrivals after revert");
        expect_bit_equal(timer.tails(), tails, "tails after revert");
    }
}

TEST(PlacedTimer, RelocateRevertRestoresStateBitForBit) {
    const TestCircuit tc = ft_bench("ham3");
    const lf::PhysicalParams params = params_for(lf::TopologyKind::Torus, 4, 4);
    lc::PlacedTimer timer(*tc.graph, tc.ft, params,
                          random_homes(params, tc.ft.num_qubits(), 6));
    leqa::util::Rng rng(43);
    const std::size_t nq = tc.ft.num_qubits();

    for (int round = 0; round < 200; ++round) {
        const std::vector<double> arrivals = timer.arrivals();
        const double latency = timer.latency_us();

        const std::size_t q = rng.index(nq);
        const lf::UlbId from = timer.homes()[q];
        lf::UlbId to = static_cast<lf::UlbId>(rng.index(timer.num_ulbs()));
        while (timer.occupant(to) != lc::PlacedTimer::kNoQubit) {
            to = static_cast<lf::UlbId>(rng.index(timer.num_ulbs()));
        }
        (void)timer.apply_relocate(q, to);
        (void)timer.apply_relocate(q, from); // the inverse move

        ASSERT_TRUE(bit_equal(timer.latency_us(), latency));
        expect_bit_equal(timer.arrivals(), arrivals, "arrivals after revert");
    }
}

// ------------------------------------------------------------- validation --

TEST(PlacedTimer, RejectsBadHomes) {
    const TestCircuit tc = ft_bench("ham3");
    const lf::PhysicalParams params = params_for(lf::TopologyKind::Grid, 4, 4);

    // Wrong cardinality.
    EXPECT_THROW(lc::PlacedTimer(*tc.graph, tc.ft, params, {0, 1}),
                 leqa::util::InputError);
    // Out of range.
    EXPECT_THROW(lc::PlacedTimer(*tc.graph, tc.ft, params, {0, 1, 16}),
                 leqa::util::InputError);
    // Duplicate home.
    EXPECT_THROW(lc::PlacedTimer(*tc.graph, tc.ft, params, {3, 3, 7}),
                 leqa::util::InputError);
}

TEST(PlacedTimer, RejectsBadMoves) {
    const TestCircuit tc = ft_bench("ham3");
    const lf::PhysicalParams params = params_for(lf::TopologyKind::Grid, 4, 4);
    lc::PlacedTimer timer(*tc.graph, tc.ft, params, {0, 1, 2});

    EXPECT_THROW((void)timer.apply_swap(0, 0), leqa::util::InputError);
    EXPECT_THROW((void)timer.apply_swap(0, 99), leqa::util::InputError);
    // Relocate target occupied / out of range.
    EXPECT_THROW((void)timer.apply_relocate(0, 1), leqa::util::InputError);
    EXPECT_THROW((void)timer.apply_relocate(0, 16), leqa::util::InputError);
    EXPECT_THROW((void)timer.apply_relocate(99, 5), leqa::util::InputError);
}
