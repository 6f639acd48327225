// Tests for the parallel multi-dimensional design-space explorer
// (core/explore.h) and the sweep correctness fixes that rode along with it:
// 64-bit line-topology area sizing, NaN-robust best-point selection, and
// the sweep edge paths (all-infeasible, mid-exploration cancellation,
// parallel-vs-serial bit-identity).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <limits>

#include "benchgen/suite.h"
#include "core/explore.h"
#include "core/sweep.h"
#include "iig/iig.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "report/report.h"
#include "service/service.h"
#include "service/wire.h"
#include "synth/ft_synth.h"
#include "util/error.h"

namespace lcore = leqa::core;
namespace lf = leqa::fabric;
namespace lp = leqa::pipeline;
namespace lu = leqa::util;
namespace lw = leqa::service::wire;

namespace {

struct ProfiledCircuit {
    leqa::circuit::Circuit ft;
    std::unique_ptr<leqa::qodg::Qodg> graph;
    std::unique_ptr<leqa::iig::Iig> iig;
    lcore::CircuitProfile profile;
};

ProfiledCircuit profiled(const std::string& bench) {
    ProfiledCircuit out{
        leqa::synth::ft_synthesize(lp::parse_source("bench:" + bench).load()).circuit,
        nullptr, nullptr, {}};
    out.graph = std::make_unique<leqa::qodg::Qodg>(out.ft);
    out.iig = std::make_unique<leqa::iig::Iig>(out.ft);
    out.profile = lcore::CircuitProfile::build(*out.graph, *out.iig);
    return out;
}

lcore::SweepPoint point_with_latency(double latency_us) {
    lcore::SweepPoint point;
    point.estimate.latency_us = latency_us;
    return point;
}

} // namespace

// ---------------------------------------------------------------- explore --

TEST(Explore, CrossProductOrderAndSize) {
    const ProfiledCircuit circuit = profiled("ham3");
    lcore::ExplorationSpec spec;
    spec.topologies = {lf::TopologyKind::Grid, lf::TopologyKind::Torus};
    spec.sides = {8, 10};
    spec.capacities = {3, 5};
    spec.speeds = {0.001, 0.002};

    const lcore::ExplorationResult result =
        lcore::explore(circuit.profile, lf::PhysicalParams{}, spec);
    ASSERT_EQ(result.points.size(), 16u);
    // v is the innermost axis, then Nc, then side, then topology.
    EXPECT_EQ(result.points[0].params.v, 0.001);
    EXPECT_EQ(result.points[1].params.v, 0.002);
    EXPECT_EQ(result.points[0].params.nc, 3);
    EXPECT_EQ(result.points[2].params.nc, 5);
    EXPECT_EQ(result.points[0].params.width, 8);
    EXPECT_EQ(result.points[4].params.width, 10);
    EXPECT_EQ(result.points[0].params.topology, lf::TopologyKind::Grid);
    EXPECT_EQ(result.points[8].params.topology, lf::TopologyKind::Torus);
    ASSERT_TRUE(result.has_best());
    EXPECT_TRUE(std::isfinite(result.best().estimate.latency_us));
}

TEST(Explore, DefaultAxesKeepBaseParams) {
    const ProfiledCircuit circuit = profiled("ham3");
    lf::PhysicalParams base;
    base.nc = 4;
    base.v = 0.003;
    lcore::ExplorationSpec spec;
    spec.sides = {9};

    const lcore::ExplorationResult result =
        lcore::explore(circuit.profile, base, spec);
    ASSERT_EQ(result.points.size(), 1u);
    EXPECT_EQ(result.points[0].params.nc, 4);
    EXPECT_EQ(result.points[0].params.v, 0.003);
    EXPECT_EQ(result.points[0].params.width, 9);
    EXPECT_EQ(result.points[0].params.height, 9);
    EXPECT_EQ(result.points[0].params.topology, lf::TopologyKind::Grid);
}

TEST(Explore, ParallelBitIdenticalToSerial) {
    const ProfiledCircuit circuit = profiled("8bitadder");
    lcore::ExplorationSpec spec;
    spec.topologies = {lf::TopologyKind::Grid, lf::TopologyKind::Torus};
    spec.sides = {10, 12, 14, 16};
    spec.capacities = {3, 5};
    spec.speeds = {0.0005, 0.001, 0.002};

    spec.threads = 1;
    const lcore::ExplorationResult serial =
        lcore::explore(circuit.profile, lf::PhysicalParams{}, spec);
    spec.threads = 4;
    const lcore::ExplorationResult parallel =
        lcore::explore(circuit.profile, lf::PhysicalParams{}, spec);

    ASSERT_EQ(serial.points.size(), 48u);
    ASSERT_EQ(parallel.points.size(), serial.points.size());
    for (std::size_t i = 0; i < serial.points.size(); ++i) {
        EXPECT_EQ(parallel.points[i].params, serial.points[i].params);
        // Bit-identical, not approximately equal.
        EXPECT_EQ(parallel.points[i].estimate.latency_us,
                  serial.points[i].estimate.latency_us);
    }
    EXPECT_EQ(parallel.best_index, serial.best_index);
    EXPECT_EQ(parallel.pareto_front, serial.pareto_front);
    EXPECT_GE(parallel.threads_used, 1u);
}

TEST(Explore, MatchesOneDimensionalSweepsOnSharedAxisPoints) {
    const ProfiledCircuit circuit = profiled("8bitadder");
    const lf::PhysicalParams base;
    const std::vector<int> sides = {10, 12, 14};

    lp::Pipeline pipe;
    const lcore::SweepResult sweep =
        pipe.sweep_fabric_sides(lp::CircuitSource::from_bench("8bitadder"), sides);
    lcore::ExplorationSpec spec;
    spec.sides = sides;
    spec.threads = 4;
    const lcore::ExplorationResult explored =
        lcore::explore(circuit.profile, base, spec);

    ASSERT_EQ(explored.points.size(), sweep.points.size());
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        EXPECT_EQ(explored.points[i].params, sweep.points[i].params);
        EXPECT_EQ(explored.points[i].estimate.latency_us,
                  sweep.points[i].estimate.latency_us);
    }
    EXPECT_EQ(explored.best_index, sweep.best_index);
}

TEST(Explore, BestPerTopologyAndParetoFront) {
    const ProfiledCircuit circuit = profiled("8bitadder");
    lcore::ExplorationSpec spec;
    spec.topologies = {lf::TopologyKind::Grid, lf::TopologyKind::Torus};
    spec.sides = {10, 14, 18};

    const lcore::ExplorationResult result =
        lcore::explore(circuit.profile, lf::PhysicalParams{}, spec);
    ASSERT_EQ(result.points.size(), 6u);
    ASSERT_EQ(result.best_per_topology.size(), 2u);
    EXPECT_EQ(result.best_per_topology[0].kind, lf::TopologyKind::Grid);
    EXPECT_EQ(result.best_per_topology[1].kind, lf::TopologyKind::Torus);
    for (const lcore::TopologyBest& best : result.best_per_topology) {
        const double best_latency = result.points[best.index].estimate.latency_us;
        for (std::size_t i = 0; i < result.points.size(); ++i) {
            if (result.points[i].params.topology != best.kind) continue;
            EXPECT_LE(best_latency, result.points[i].estimate.latency_us);
        }
    }

    // The front is area-ascending / latency strictly descending, and no
    // member is dominated by any other point.
    ASSERT_FALSE(result.pareto_front.empty());
    for (std::size_t f = 0; f + 1 < result.pareto_front.size(); ++f) {
        const auto& here = result.points[result.pareto_front[f]];
        const auto& next = result.points[result.pareto_front[f + 1]];
        EXPECT_LT(here.params.area(), next.params.area());
        EXPECT_GT(here.estimate.latency_us, next.estimate.latency_us);
    }
    for (const std::size_t index : result.pareto_front) {
        const auto& member = result.points[index];
        for (std::size_t i = 0; i < result.points.size(); ++i) {
            if (i == index) continue;
            const auto& other = result.points[i];
            const bool dominates =
                (other.params.area() <= member.params.area() &&
                 other.estimate.latency_us < member.estimate.latency_us) ||
                (other.params.area() < member.params.area() &&
                 other.estimate.latency_us <= member.estimate.latency_us);
            EXPECT_FALSE(dominates) << "front index " << index
                                    << " dominated by point " << i;
        }
    }
    // The global best is always on the front.
    ASSERT_TRUE(result.has_best());
    EXPECT_NE(std::find(result.pareto_front.begin(), result.pareto_front.end(),
                        result.best_index),
              result.pareto_front.end());
}

TEST(Explore, CancellationMidExplorationPublishesNothing) {
    const ProfiledCircuit circuit = profiled("8bitadder");
    lcore::ExplorationSpec spec;
    spec.sides = {10, 12, 14, 16, 18, 20};
    spec.threads = 2;

    std::atomic<int> seen{0};
    EXPECT_THROW(
        (void)lcore::explore(circuit.profile, lf::PhysicalParams{}, spec, {},
                             [&seen] {
                                 if (seen.fetch_add(1) >= 3) {
                                     throw lu::CancelledError("stop mid-exploration");
                                 }
                             }),
        lu::CancelledError);
    // The hook fired mid-run (not after every point): the throw aborted the
    // remaining points instead of letting the loop run dry.
    EXPECT_LT(seen.load(), 7);
}

TEST(Explore, PipelineExploreObservesRunControl) {
    lp::Pipeline pipe;
    const auto source = lp::parse_source("bench:ham3");
    lcore::ExplorationSpec spec;
    spec.sides = {8, 10, 12};

    lp::RunControl cancelled;
    cancelled.cancel.store(true);
    EXPECT_THROW((void)pipe.explore(source, spec, &cancelled), lu::CancelledError);

    // The cancellation fired before resolve, so nothing was cached; a real
    // run populates the cache and a second one reuses the profile.
    const lcore::ExplorationResult result = pipe.explore(source, spec);
    EXPECT_EQ(result.points.size(), 3u);
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 1u);
    const lcore::ExplorationResult again = pipe.explore(source, spec);
    EXPECT_EQ(again.points.size(), 3u);
    EXPECT_GE(pipe.cache_stats().circuit_hits, 1u);
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 1u);
}

TEST(Explore, AllSidesInfeasibleKeepsSweepErrorText) {
    const ProfiledCircuit circuit = profiled("8bitadder"); // 24 qubits
    lcore::ExplorationSpec spec;
    spec.sides = {1, 2, 3}; // 9 < 24: nothing can host the circuit
    try {
        (void)lcore::explore(circuit.profile, lf::PhysicalParams{}, spec);
        FAIL() << "expected InputError";
    } catch (const lu::InputError& error) {
        EXPECT_NE(std::string(error.what()).find(
                      "sweep has no feasible configurations"),
                  std::string::npos)
            << error.what();
    }
    lp::Pipeline pipe;
    const lp::CircuitSource source = lp::CircuitSource::from_bench("8bitadder");
    EXPECT_THROW((void)pipe.sweep_fabric_sides(source, {2, 3}), lu::InputError);
    // An explicitly empty axis list is also not a valid sweep.
    try {
        (void)pipe.sweep(source, lcore::ExplorationSpec{});
        FAIL() << "expected InputError";
    } catch (const lu::InputError& error) {
        EXPECT_NE(std::string(error.what()).find(
                      "sweep has no feasible configurations"),
                  std::string::npos)
            << error.what();
    }
}

// ------------------------------------------- overflow regression (satellite) --

TEST(Explore, LineSideAreaOverflowThrowsInsteadOfWrapping) {
    const ProfiledCircuit circuit = profiled("ham3");
    lf::PhysicalParams base;
    base.topology = lf::TopologyKind::Line;
    base.height = 1;
    // 50000^2 = 2.5e9 overflows int; the pre-fix code wrapped it silently.
    lcore::ExplorationSpec spec;
    spec.sides = {50000};
    try {
        (void)lcore::explore(circuit.profile, base, spec);
        FAIL() << "expected InputError";
    } catch (const lu::InputError& error) {
        EXPECT_NE(std::string(error.what()).find("50000"), std::string::npos)
            << error.what();
        EXPECT_NE(std::string(error.what()).find("int range"), std::string::npos)
            << error.what();
    }
    // A feasible large side on a non-line topology is untouched by the guard.
    const lcore::ExplorationResult grid_ok =
        lcore::explore(circuit.profile, lf::PhysicalParams{}, spec);
    EXPECT_EQ(grid_ok.points.at(0).params.width, 50000);
}

TEST(Explore, TopologySweepLineAreaOverflowThrows) {
    const ProfiledCircuit circuit = profiled("ham3");
    lf::PhysicalParams base;
    base.width = 60000;
    base.height = 60000; // 3.6e9 ULBs: fine as a grid, unrepresentable as a row
    lcore::ExplorationSpec spec;
    spec.topologies = {lf::TopologyKind::Line};
    try {
        (void)lcore::explore(circuit.profile, base, spec);
        FAIL() << "expected InputError";
    } catch (const lu::InputError& error) {
        // The 64-bit guard names the unrepresentable area; the pre-fix
        // narrowing wrapped silently and failed later in validate().
        EXPECT_NE(std::string(error.what()).find("3600000000"), std::string::npos)
            << error.what();
        EXPECT_NE(std::string(error.what()).find("int range"), std::string::npos)
            << error.what();
    }
    // Grid and torus at the same area are unaffected.
    spec.topologies = {lf::TopologyKind::Grid, lf::TopologyKind::Torus};
    const lcore::ExplorationResult ok = lcore::explore(circuit.profile, base, spec);
    EXPECT_EQ(ok.points.size(), 2u);
}

// ------------------------------------------- NaN-best regression (satellite) --

TEST(Sweep, BestSelectionSkipsNonFinitePoints) {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();

    // The pre-fix incremental `<` fold let a NaN first point stick as best
    // forever (NaN < NaN and 5 < NaN are both false).
    std::size_t non_finite = 0;
    EXPECT_EQ(lcore::best_point_index(
                  {point_with_latency(nan), point_with_latency(5.0),
                   point_with_latency(3.0)},
                  &non_finite),
              2u);
    EXPECT_EQ(non_finite, 1u);

    EXPECT_EQ(lcore::best_point_index({point_with_latency(inf),
                                       point_with_latency(7.0)}),
              1u);
    EXPECT_EQ(lcore::best_point_index({point_with_latency(2.0),
                                       point_with_latency(nan)}),
              0u);
    EXPECT_EQ(lcore::best_point_index({point_with_latency(nan),
                                       point_with_latency(inf)},
                                      &non_finite),
              lcore::kNoBestPoint);
    EXPECT_EQ(non_finite, 2u);
    EXPECT_EQ(lcore::best_point_index({}), lcore::kNoBestPoint);
}

TEST(Sweep, NoFiniteBestIsExplicit) {
    lcore::SweepResult result;
    result.points = {point_with_latency(std::numeric_limits<double>::quiet_NaN())};
    result.best_index = lcore::best_point_index(result.points, &result.non_finite_points);
    EXPECT_FALSE(result.has_best());
    EXPECT_EQ(result.non_finite_points, 1u);
    EXPECT_THROW((void)result.best(), lu::InputError);

    // The JSON report omits best_index instead of pointing past the end.
    const std::string json = leqa::report::sweep_to_json(result);
    EXPECT_EQ(json.find("best_index"), std::string::npos) << json;
    EXPECT_NE(json.find("\"non_finite_points\":1"), std::string::npos) << json;
}

TEST(Sweep, SubnormalSpeedProducesNonFinitePointButSaneBest) {
    // v = 1e-310 makes d_uncongest = d_uncongest_v / v overflow to infinity;
    // the point is kept (flagged), never selected as best.
    lp::Pipeline pipe;
    const lcore::SweepResult result =
        pipe.sweep_speed(lp::CircuitSource::from_bench("ham3"), {1e-310, 0.001});
    ASSERT_EQ(result.points.size(), 2u);
    EXPECT_FALSE(std::isfinite(result.points[0].estimate.latency_us));
    ASSERT_TRUE(result.has_best());
    EXPECT_EQ(result.best_index, 1u);
    EXPECT_EQ(result.non_finite_points, 1u);
}

// ----------------------------------------------------- service + report ----

TEST(Explore, ServiceExploreJobMatchesDirectPipeline) {
    auto pipeline = std::make_shared<lp::Pipeline>();
    lcore::ExplorationSpec spec;
    spec.topologies = {lf::TopologyKind::Grid, lf::TopologyKind::Torus};
    spec.sides = {8, 10};
    spec.threads = 2;
    const lcore::ExplorationResult direct =
        pipeline->explore(lp::parse_source("bench:ham3"), spec);

    leqa::service::Service service(pipeline, {});
    lw::WireRequest request;
    request.id = 1;
    request.op = lw::WireRequest::Op::Explore;
    request.source = "bench:ham3";
    request.explore = spec;
    const leqa::service::JobResult result = lw::submit(service, request).wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto& explored = std::get<lcore::ExplorationResult>(result.value());
    ASSERT_EQ(explored.points.size(), direct.points.size());
    for (std::size_t i = 0; i < explored.points.size(); ++i) {
        EXPECT_EQ(explored.points[i].estimate.latency_us,
                  direct.points[i].estimate.latency_us);
    }
    EXPECT_EQ(explored.best_index, direct.best_index);

    request.source = "bench:nosuchbench";
    const leqa::service::JobResult failure = lw::submit(service, request).wait();
    ASSERT_FALSE(failure.ok());
    EXPECT_EQ(failure.status().code(), lu::StatusCode::NotFound);
    EXPECT_EQ(failure.status().origin(), "explore");
}

TEST(Explore, ExplorationJsonCarriesBestAndPareto) {
    lp::Pipeline pipe;
    lcore::ExplorationSpec spec;
    spec.sides = {8, 10};
    spec.capacities = {3, 5};
    const lcore::ExplorationResult result =
        pipe.explore(lp::parse_source("bench:ham3"), spec);

    const std::string json = leqa::report::exploration_to_json(result);
    EXPECT_NE(json.find("\"points_total\":4"), std::string::npos) << json;
    EXPECT_NE(json.find("\"best_index\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"best_per_topology\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"pareto_front\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"threads_used\""), std::string::npos) << json;
}
