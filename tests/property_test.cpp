// Parameterized property sweeps (TEST_P / INSTANTIATE_TEST_SUITE_P) over
// fabric geometries, channel capacities, circuit shapes and random seeds:
// the invariants every configuration must satisfy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>

#include "core/engine.h"
#include "core/leqa.h"
#include "estimate.h"
#include "fabric/geometry.h"
#include "fabric/params.h"
#include "fabric/topology.h"
#include "graph/csr.h"
#include "iig/iig.h"
#include "lane_reference.h"
#include "mathx/queueing.h"
#include "qodg/qodg.h"
#include "qspr/qspr.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace lcore = leqa::core;
namespace lf = leqa::fabric;
namespace lm = leqa::mathx;
namespace lq = leqa::qspr;
namespace lt = leqa::test_support;

using lt::random_ft_circuit;

// --------------------------------------------------- coverage properties --

class CoverageSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CoverageSweep, ProbabilitiesAreValidAndSumToZoneArea) {
    const auto [a, b, s] = GetParam();
    if (s > std::min(a, b)) GTEST_SKIP() << "zone larger than fabric";
    double sum = 0.0;
    for (int x = 1; x <= a; ++x) {
        for (int y = 1; y <= b; ++y) {
            const double p = lcore::LeqaEstimator::coverage_probability(x, y, a, b, s);
            ASSERT_GE(p, 0.0);
            ASSERT_LE(p, 1.0);
            sum += p;
        }
    }
    // Expected covered cells per placement = s^2 (Eq. 5 integrates to the
    // zone area).
    EXPECT_NEAR(sum, static_cast<double>(s) * s, 1e-6);
}

TEST_P(CoverageSweep, SurfacesSatisfyEquation3) {
    const auto [a, b, s] = GetParam();
    if (s > std::min(a, b)) GTEST_SKIP() << "zone larger than fabric";
    std::vector<double> coverage;
    for (int x = 1; x <= a; ++x) {
        for (int y = 1; y <= b; ++y) {
            coverage.push_back(lcore::LeqaEstimator::coverage_probability(x, y, a, b, s));
        }
    }
    const long long q_total = 9;
    double total = 0.0;
    for (long long q = 0; q <= q_total; ++q) {
        const double surface =
            lcore::LeqaEstimator::expected_surface(coverage, q_total, q);
        ASSERT_GE(surface, 0.0);
        total += surface;
    }
    EXPECT_NEAR(total, static_cast<double>(a) * b, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Fabrics, CoverageSweep,
    ::testing::Values(std::tuple{4, 4, 1}, std::tuple{4, 4, 2}, std::tuple{8, 5, 3},
                      std::tuple{12, 12, 5}, std::tuple{20, 7, 7},
                      std::tuple{30, 30, 6}, std::tuple{60, 60, 6},
                      std::tuple{1, 9, 1}, std::tuple{16, 16, 16}));

// ----------------------------------------------------- queueing properties --

class QueueSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(QueueSweep, Equation8And11AreConsistent) {
    const auto [nc, d] = GetParam();
    double previous = 0.0;
    for (double q = 0.0; q <= 30.0; q += 0.5) {
        const double delay = lm::congested_delay(q, nc, d);
        // Monotone non-decreasing in q.
        ASSERT_GE(delay, previous - 1e-12);
        previous = delay;
        // Never below the uncongested floor.
        ASSERT_GE(delay, d - 1e-12);
        if (q > nc) {
            // Congested branch equals Little's-law wait (Eq. 11).
            ASSERT_NEAR(delay, lm::average_wait_from_queue_length(q, nc, d), 1e-9);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Channels, QueueSweep,
                         ::testing::Combine(::testing::Values(1, 2, 5, 10),
                                            ::testing::Values(100.0, 820.0, 5000.0)));

// ------------------------------------------------------- LEQA estimator --

class EstimatorSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EstimatorSweep, EstimateIsFinitepositiveAndScalesWithFabric) {
    const auto [side, nc] = GetParam();
    const auto circ = random_ft_circuit(20, 400, 77);
    lf::PhysicalParams params;
    params.width = side;
    params.height = side;
    params.nc = nc;
    const auto estimate = lt::estimate(circ, params);
    ASSERT_TRUE(std::isfinite(estimate.latency_us));
    ASSERT_GT(estimate.latency_us, 0.0);
    // Estimate is bounded below by the pure gate-delay critical path.
    ASSERT_GE(estimate.latency_us, estimate.critical_gate_delay_us - 1e-6);
    // Covered area cannot exceed the fabric.
    ASSERT_LE(estimate.covered_area,
              static_cast<double>(params.area()) + 1e-6);
}

INSTANTIATE_TEST_SUITE_P(FabricsAndChannels, EstimatorSweep,
                         ::testing::Combine(::testing::Values(10, 25, 60, 90),
                                            ::testing::Values(1, 5, 10)));

class EstimatorSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EstimatorSeedSweep, CriticalCensusConsistentAcrossRandomCircuits) {
    const auto circ = random_ft_circuit(14, 250, GetParam());
    const lf::PhysicalParams params;
    const auto estimate = lt::estimate(circ, params);
    // Reconstruct Eq. 1 from the census and the model terms.
    double reconstructed = 0.0;
    for (std::size_t k = 0; k < lc::kGateKindCount; ++k) {
        const auto kind = static_cast<lc::GateKind>(k);
        const auto count = estimate.critical_census.by_kind[k];
        if (count == 0) continue;
        const double routing = kind == lc::GateKind::Cnot ? estimate.l_cnot_avg_us
                                                          : estimate.l_one_qubit_avg_us;
        reconstructed += static_cast<double>(count) * (params.delay_us(kind) + routing);
    }
    EXPECT_NEAR(reconstructed, estimate.latency_us, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EstimatorSeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

// ------------------------------------------------------------- QSPR sweep --

class QsprSweep
    : public ::testing::TestWithParam<
          std::tuple<lq::PlacementStrategy, lq::RoutingAlgorithm, lq::SchedulePolicy>> {};

TEST_P(QsprSweep, ScheduleValidUnderAllConfigurations) {
    const auto [placement, routing, schedule] = GetParam();
    const auto circ = random_ft_circuit(10, 150, 31);
    lf::PhysicalParams params;
    params.width = 12;
    params.height = 12;
    lq::QsprOptions options;
    options.placement = placement;
    options.routing = routing;
    options.schedule = schedule;
    options.collect_schedule = true;
    options.seed = 5;
    const auto result = lq::QsprMapper(params, options).map(circ);
    ASSERT_EQ(result.schedule.size(), circ.size());

    // Dependency validity: per-qubit intervals must not overlap.
    std::vector<double> qubit_busy_until(circ.num_qubits(), 0.0);
    std::vector<std::size_t> issue_of_gate(circ.size());
    for (std::size_t i = 0; i < result.schedule.size(); ++i) {
        issue_of_gate[result.schedule[i].gate_index] = i;
    }
    for (std::size_t g = 0; g < circ.size(); ++g) {
        const auto& op = result.schedule[issue_of_gate[g]];
        for (const auto q : circ.gate(g).qubits()) {
            ASSERT_GE(op.start_us + 1e-6, qubit_busy_until[q])
                << "config " << static_cast<int>(placement) << "/"
                << static_cast<int>(routing) << "/" << static_cast<int>(schedule);
            qubit_busy_until[q] = op.finish_us;
        }
    }
    // Makespan consistency.
    double makespan = 0.0;
    for (const auto& op : result.schedule) makespan = std::max(makespan, op.finish_us);
    EXPECT_DOUBLE_EQ(result.latency_us, makespan);
    // Determinism.
    const auto again = lq::QsprMapper(params, options).map(circ);
    EXPECT_DOUBLE_EQ(again.latency_us, result.latency_us);
}

INSTANTIATE_TEST_SUITE_P(
    Configurations, QsprSweep,
    ::testing::Combine(::testing::Values(lq::PlacementStrategy::CenteredBlock,
                                         lq::PlacementStrategy::RowMajor,
                                         lq::PlacementStrategy::Random),
                       ::testing::Values(lq::RoutingAlgorithm::Xy,
                                         lq::RoutingAlgorithm::Maze),
                       ::testing::Values(lq::SchedulePolicy::ProgramOrder,
                                         lq::SchedulePolicy::CriticalPathPriority)));

// ------------------------------------------------------ geometry property --

class GeometrySweep : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(GeometrySweep, RoutesConnectAndRingsPartition) {
    const auto [w, h] = GetParam();
    const lf::GridTopology geo(w, h);
    leqa::util::Rng rng(71);
    for (int trial = 0; trial < 20; ++trial) {
        const lf::UlbCoord a{static_cast<int>(rng.index(static_cast<std::size_t>(w))),
                             static_cast<int>(rng.index(static_cast<std::size_t>(h)))};
        const lf::UlbCoord b{static_cast<int>(rng.index(static_cast<std::size_t>(w))),
                             static_cast<int>(rng.index(static_cast<std::size_t>(h)))};
        const auto route = geo.route(a, b);
        ASSERT_EQ(route.size(), static_cast<std::size_t>(geo.distance(a, b)));
        for (const auto segment : route) {
            ASSERT_GE(segment, 0);
            ASSERT_LT(static_cast<std::size_t>(segment), geo.num_segments());
        }
    }
    std::size_t counted = 0;
    for (int r = 0; r <= std::max(w, h); ++r) {
        counted += geo.ring({w / 2, h / 2}, r).size();
    }
    EXPECT_EQ(counted, geo.num_ulbs());
}

INSTANTIATE_TEST_SUITE_P(Shapes, GeometrySweep,
                         ::testing::Values(std::pair{1, 1}, std::pair{1, 12},
                                           std::pair{12, 1}, std::pair{3, 17},
                                           std::pair{17, 3}, std::pair{16, 16},
                                           std::pair{60, 60}));

// ------------------------------------------- structured estimator fuzzing --
//
// The structured counterpart of the byte-level fuzz/ harnesses: each seed
// generates a random circuit AND a random small topology (benchgen-style,
// drawn from one Rng stream), then checks the whole-system invariants the
// byte fuzzers cannot reach — the structural validators stay clean on every
// generated instance, and on grid fabrics the staged engine reproduces the
// golden single-pass estimator to 1e-9 relative (the DESIGN.md parity bar,
// here on adversarially random rather than benchmark circuits).

class StructuredFuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StructuredFuzzSweep, RandomCircuitAndTopologyHoldEveryContract) {
    leqa::util::Rng rng(GetParam());

    // Random instance: circuit shape and fabric drawn like fuzzer bytes.
    const std::size_t qubits = 2 + rng.index(14);        // [2, 15]
    const std::size_t gates = 1 + rng.index(200);        // [1, 200]
    const auto circ = random_ft_circuit(qubits, gates, rng.next());
    lf::PhysicalParams params;
    params.width = 3 + static_cast<int>(rng.index(10));  // [3, 12]
    params.height = 3 + static_cast<int>(rng.index(10));
    params.nc = 1 + static_cast<int>(rng.index(6));
    params.v = 0.0005 * static_cast<double>(1 + rng.index(40)); // [5e-4, 2e-2]
    const auto kind_pick = rng.index(3);
    params.topology = kind_pick == 0   ? lf::TopologyKind::Grid
                      : kind_pick == 1 ? lf::TopologyKind::Torus
                                       : lf::TopologyKind::Line;
    if (params.topology == lf::TopologyKind::Line) params.height = 1;

    // The QODG of any generated circuit is a clean topological DAG.
    const leqa::qodg::Qodg graph(circ);
    ASSERT_EQ(leqa::graph::validate_csr(graph.csr()), "");

    // The topology and its whole coverage family are structurally clean.
    const auto topology = lf::make_topology(params);
    ASSERT_EQ(lf::validate_topology(*topology), "") << topology->name();
    const int max_extent = params.topology == lf::TopologyKind::Line
                               ? params.width
                               : std::min(params.width, params.height);
    for (int extent = 1; extent <= max_extent; ++extent) {
        const double expected_mass =
            params.topology == lf::TopologyKind::Line
                ? static_cast<double>(extent)
                : static_cast<double>(extent) * extent;
        ASSERT_EQ(lf::validate_coverage(topology->coverage_histogram(extent),
                                        expected_mass),
                  "")
            << topology->name() << " extent " << extent;
    }

    // Estimates stay finite and bounded on every topology kind.
    const auto estimate = lt::estimate(circ, params);
    ASSERT_TRUE(std::isfinite(estimate.latency_us));
    ASSERT_GT(estimate.latency_us, 0.0);
    ASSERT_LE(estimate.covered_area, static_cast<double>(params.area()) + 1e-6);

    // The profile read from the QODG's tape equals the one read from the
    // IIG, field for field and bit for bit.
    const leqa::iig::Iig iig(circ);
    const auto profile = lcore::CircuitProfile::build(graph, iig);
    const auto from_tape = lcore::CircuitProfile::build(graph);
    EXPECT_EQ(from_tape.num_qubits, profile.num_qubits);
    EXPECT_EQ(from_tape.num_ops, profile.num_ops);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(from_tape.zone_area_b),
              std::bit_cast<std::uint64_t>(profile.zone_area_b));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(from_tape.d_uncongest_v),
              std::bit_cast<std::uint64_t>(profile.d_uncongest_v));
    EXPECT_EQ(from_tape.gate_counts, profile.gate_counts);
    EXPECT_EQ(from_tape.graph, profile.graph);

    // Grid instances additionally pass the staged-vs-golden parity bar.
    if (params.topology == lf::TopologyKind::Grid) {
        const auto staged = lcore::EstimationEngine(params).estimate(profile);
        const auto reference = lcore::LeqaEstimator(params).estimate_reference(graph, iig);
        const double scale = std::max(
            {std::abs(reference.latency_us), std::abs(staged.latency_us), 1e-300});
        EXPECT_LE(std::abs(staged.latency_us - reference.latency_us) / scale, 1e-9)
            << staged.latency_us << " vs " << reference.latency_us;
    }

    // The lane-blocked critical path equals the push-based sweep bit for
    // bit at a random width: lane 0 is this estimate's own delay table
    // (so its latency and census are checked too), the others scale its
    // CNOT and one-qubit routing terms, each by its own factor.
    std::vector<lt::DelayTable> tables(1 + rng.index(32));
    for (std::size_t lane = 0; lane < tables.size(); ++lane) {
        const double scale = lane == 0 ? 1.0 : 0.25 + 2.0 * rng.uniform();
        const double one_qubit_scale = lane == 0 ? 1.0 : 0.25 + 2.0 * rng.uniform();
        for (std::size_t k = 0; k < lc::kGateKindCount; ++k) {
            const auto kind = static_cast<lc::GateKind>(k);
            if (!lc::gate_info(kind).is_ft) continue;
            tables[lane][k] = params.delay_us(kind) +
                              (kind == lc::GateKind::Cnot
                                   ? estimate.l_cnot_avg_us * scale
                                   : estimate.l_one_qubit_avg_us * one_qubit_scale);
        }
    }
    EXPECT_EQ(lt::lane_mismatch(graph, tables), "") << "width " << tables.size();
    const auto lp = graph.longest_path(graph.node_delays(tables[0]));
    EXPECT_EQ(estimate.latency_us, lp.length);
    EXPECT_EQ(estimate.critical_census.by_kind,
              graph.census(graph.critical_path(lp)).by_kind);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StructuredFuzzSweep,
                         ::testing::Range<std::uint64_t>(1000, 1024));
