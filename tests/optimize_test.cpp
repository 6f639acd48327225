// Tests for the latency-driven placement optimizer (core/optimize.h), its
// pipeline/service/wire plumbing, the QSPR initial_homes handoff, and the
// surface-cache statistics passthrough that rode along in the same change.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>

#include "core/optimize.h"
#include "core/placed.h"
#include "pipeline/pipeline.h"
#include "qspr/qspr.h"
#include "report/report.h"
#include "service/service.h"
#include "service/wire.h"
#include "synth/ft_synth.h"
#include "util/error.h"
#include "util/json_value.h"

namespace lc = leqa::core;
namespace lf = leqa::fabric;
namespace lp = leqa::pipeline;
namespace ls = leqa::service;
namespace wire = leqa::service::wire;

namespace {

struct TestCircuit {
    leqa::circuit::Circuit ft;
    std::unique_ptr<leqa::qodg::Qodg> graph;
};

TestCircuit ft_bench(const std::string& bench) {
    TestCircuit out{
        leqa::synth::ft_synthesize(lp::parse_source("bench:" + bench).load())
            .circuit,
        nullptr};
    out.graph = std::make_unique<leqa::qodg::Qodg>(out.ft);
    return out;
}

std::vector<lf::UlbId> centered_homes(const lf::PhysicalParams& params,
                                      std::size_t num_qubits) {
    return leqa::qspr::initial_placement(
        lf::FabricGeometry(lf::make_topology(params)), num_qubits,
        leqa::qspr::PlacementStrategy::CenteredBlock, 1);
}

} // namespace

// --------------------------------------------------------------- options --

TEST(OptimizeOptions, ModeNamesRoundTrip) {
    EXPECT_EQ(lc::parse_optimize_mode("anneal"), lc::OptimizeMode::Anneal);
    EXPECT_EQ(lc::parse_optimize_mode("greedy"), lc::OptimizeMode::Greedy);
    EXPECT_EQ(lc::optimize_mode_name(lc::OptimizeMode::Anneal), "anneal");
    EXPECT_EQ(lc::optimize_mode_name(lc::OptimizeMode::Greedy), "greedy");
    EXPECT_THROW((void)lc::parse_optimize_mode("tabu"), leqa::util::InputError);
}

TEST(Optimize, RejectsBadOptions) {
    const TestCircuit tc = ft_bench("ham3");
    lf::PhysicalParams params;
    params.width = params.height = 6;
    const std::vector<lf::UlbId> homes = centered_homes(params, tc.ft.num_qubits());

    lc::OptimizeOptions options;
    options.max_moves = 0;
    EXPECT_THROW(
        (void)lc::optimize_placement(*tc.graph, tc.ft, params, homes, options),
        leqa::util::InputError);

    options = {};
    options.max_seconds = -1.0;
    EXPECT_THROW(
        (void)lc::optimize_placement(*tc.graph, tc.ft, params, homes, options),
        leqa::util::InputError);
}

// ----------------------------------------------------------- determinism --

TEST(Optimize, SameSeedSameResult) {
    const TestCircuit tc = ft_bench("8bitadder");
    lf::PhysicalParams params;
    params.width = params.height = 7;
    const std::vector<lf::UlbId> homes = centered_homes(params, tc.ft.num_qubits());

    lc::OptimizeOptions options;
    options.max_moves = 1500;
    options.seed = 77;

    const lc::OptimizeResult a =
        lc::optimize_placement(*tc.graph, tc.ft, params, homes, options);
    const lc::OptimizeResult b =
        lc::optimize_placement(*tc.graph, tc.ft, params, homes, options);
    EXPECT_EQ(a.homes, b.homes);
    EXPECT_EQ(a.final_latency_us, b.final_latency_us);
    EXPECT_EQ(a.moves_accepted, b.moves_accepted);
    EXPECT_EQ(a.moves_fast_rejected, b.moves_fast_rejected);
    EXPECT_EQ(a.nodes_retimed, b.nodes_retimed);

    // A different seed explores a different move stream (the usual case;
    // the counters are the sensitive witness).
    options.seed = 78;
    const lc::OptimizeResult c =
        lc::optimize_placement(*tc.graph, tc.ft, params, homes, options);
    EXPECT_NE(a.moves_accepted, c.moves_accepted);
}

// ----------------------------------------------------------- improvement --

TEST(Optimize, ImprovesCenteredBlockOnSuiteCircuits) {
    // The acceptance bar: strictly better placed latency than the
    // CenteredBlock start on at least two suite circuits, within a bounded
    // budget.  Greedy is the reliable witness (no uphill wandering).
    int improved = 0;
    for (const char* bench : {"8bitadder", "hwb15ps"}) {
        const TestCircuit tc = ft_bench(bench);
        lf::PhysicalParams params; // the paper's 60x60 default fabric
        const std::vector<lf::UlbId> homes =
            centered_homes(params, tc.ft.num_qubits());

        lc::OptimizeOptions options;
        options.mode = lc::OptimizeMode::Greedy;
        options.max_moves = 2000;
        const lc::OptimizeResult result =
            lc::optimize_placement(*tc.graph, tc.ft, params, homes, options);

        EXPECT_LE(result.final_latency_us, result.initial_latency_us);
        EXPECT_EQ(result.initial_homes, homes);
        // The reported final latency must be the true placed latency of the
        // reported homes.
        const lc::PlacedTimer check(*tc.graph, tc.ft, params, result.homes);
        EXPECT_EQ(check.latency_us(), result.final_latency_us);
        if (result.improved) ++improved;
    }
    EXPECT_GE(improved, 2);
}

TEST(Optimize, FinalLatencyNeverWorseThanInitial) {
    const TestCircuit tc = ft_bench("ham3");
    lf::PhysicalParams params;
    params.width = params.height = 5;
    const std::vector<lf::UlbId> homes = centered_homes(params, tc.ft.num_qubits());

    for (const auto mode : {lc::OptimizeMode::Anneal, lc::OptimizeMode::Greedy}) {
        lc::OptimizeOptions options;
        options.mode = mode;
        options.max_moves = 800;
        const lc::OptimizeResult result =
            lc::optimize_placement(*tc.graph, tc.ft, params, homes, options);
        EXPECT_LE(result.final_latency_us, result.initial_latency_us);
        EXPECT_EQ(result.improved,
                  result.final_latency_us < result.initial_latency_us);
        EXPECT_EQ(result.moves_attempted, options.max_moves);
    }
}

// --------------------------------------------------- qspr initial_homes --

TEST(Qspr, HonorsExplicitInitialHomes) {
    const TestCircuit tc = ft_bench("ham3");
    lf::PhysicalParams params;
    params.width = params.height = 8;

    leqa::qspr::QsprOptions options;
    options.collect_schedule = true;
    options.initial_homes = {9, 10, 17}; // a hand-picked cluster
    const leqa::qspr::QsprMapper mapper(params, options);
    const leqa::qspr::QsprResult result = mapper.map(tc.ft);
    EXPECT_GT(result.latency_us, 0.0);

    // A different explicit placement changes the mapped outcome in general;
    // at minimum both must run and produce positive latency.
    options.initial_homes = {0, 7, 56}; // fabric corners
    const leqa::qspr::QsprResult spread =
        leqa::qspr::QsprMapper(params, options).map(tc.ft);
    EXPECT_GT(spread.latency_us, 0.0);
    EXPECT_GE(spread.stats.total_hops, result.stats.total_hops);
}

TEST(Qspr, RejectsBadInitialHomes) {
    const TestCircuit tc = ft_bench("ham3");
    lf::PhysicalParams params;
    params.width = params.height = 8;

    leqa::qspr::QsprOptions options;
    options.initial_homes = {0, 1}; // wrong cardinality
    EXPECT_THROW((void)leqa::qspr::QsprMapper(params, options).map(tc.ft),
                 leqa::util::InputError);

    options.initial_homes = {0, 1, 64}; // out of range
    EXPECT_THROW((void)leqa::qspr::QsprMapper(params, options).map(tc.ft),
                 leqa::util::InputError);

    options.initial_homes = {0, 1, 1}; // duplicate
    EXPECT_THROW((void)leqa::qspr::QsprMapper(params, options).map(tc.ft),
                 leqa::util::InputError);
}

// ------------------------------------------------------ pipeline/service --

TEST(PipelineOptimize, RunsAndRespectsCancellation) {
    lp::Pipeline pipe;
    lc::OptimizeOptions options;
    options.max_moves = 500;
    const lc::OptimizeResult result =
        pipe.optimize(lp::parse_source("bench:ham3"), options);
    EXPECT_GT(result.initial_latency_us, 0.0);
    EXPECT_LE(result.final_latency_us, result.initial_latency_us);

    // A pre-cancelled control aborts at the first checkpoint.
    lp::RunControl control;
    control.cancel.store(true);
    EXPECT_THROW(
        (void)pipe.optimize(lp::parse_source("bench:ham3"), options, {}, &control),
        leqa::util::CancelledError);
}

TEST(ServiceOptimize, SubmitCompletesWithOptimizeResult) {
    ls::Service service;
    wire::WireRequest request;
    request.id = 1;
    request.op = wire::WireRequest::Op::Optimize;
    request.source = "bench:ham3";
    request.optimize.max_moves = 300;
    const ls::JobResult result = wire::submit(service, request).wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto* optimized = std::get_if<lc::OptimizeResult>(&result.value());
    ASSERT_NE(optimized, nullptr);
    EXPECT_LE(optimized->final_latency_us, optimized->initial_latency_us);

    // Unknown bench surfaces as a status, not a throw.
    request.source = "bench:no-such-circuit";
    const ls::JobResult failure = wire::submit(service, request).wait();
    ASSERT_FALSE(failure.ok());
    EXPECT_EQ(failure.status().code(), leqa::util::StatusCode::NotFound);
    EXPECT_EQ(failure.status().origin(), "optimize");
}

// ------------------------------------------------------------------ wire --

TEST(WireOptimize, RequestRoundTrip) {
    wire::WireRequest request;
    request.id = 9;
    request.op = wire::WireRequest::Op::Optimize;
    request.source = "bench:ham3";
    request.optimize.max_moves = 5000;
    request.optimize.seed = 7;
    request.optimize.mode = lc::OptimizeMode::Greedy;
    request.optimize.max_seconds = 1.5;
    request.params.topology = lf::TopologyKind::Torus;

    const std::string line = wire::serialize_request(request);
    const leqa::util::Result<wire::WireRequest> parsed = wire::parse_request(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value(), request);
}

TEST(WireOptimize, ParseValidation) {
    EXPECT_FALSE(wire::parse_request(R"({"id":1,"op":"optimize"})").ok());
    EXPECT_FALSE(
        wire::parse_request(
            R"({"id":1,"op":"optimize","source":"bench:ham3","moves":0})")
            .ok());
    EXPECT_FALSE(
        wire::parse_request(
            R"({"id":1,"op":"optimize","source":"bench:ham3","mode":"tabu"})")
            .ok());
    EXPECT_FALSE(
        wire::parse_request(
            R"({"id":1,"op":"optimize","source":"bench:ham3","max_seconds":-1})")
            .ok());

    const auto parsed = wire::parse_request(
        R"({"id":1,"op":"optimize","source":"bench:ham3","moves":123,"seed":9})");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().optimize.max_moves, 123u);
    EXPECT_EQ(parsed.value().optimize.seed, 9u);
    EXPECT_EQ(parsed.value().optimize.mode, lc::OptimizeMode::Anneal);
}

TEST(WireOptimize, ResultSerializesUnderOptimizeKey) {
    lc::OptimizeResult optimized;
    optimized.homes = {3, 1};
    optimized.initial_homes = {1, 3};
    optimized.initial_latency_us = 100.0;
    optimized.final_latency_us = 90.0;
    optimized.improved = true;
    optimized.moves_attempted = 10;

    const std::string line =
        wire::serialize_result(4, ls::JobResult(ls::JobOutput(optimized)));
    const leqa::util::JsonValue root = leqa::util::json_parse(line);
    EXPECT_EQ(root.at("id").as_int(), 4);
    const leqa::util::JsonValue& body = root.at("result").at("optimize");
    EXPECT_EQ(body.at("initial_latency_us").as_number(), 100.0);
    EXPECT_EQ(body.at("final_latency_us").as_number(), 90.0);
    EXPECT_TRUE(body.at("improved").as_bool());
    EXPECT_EQ(body.at("moves").at("attempted").as_int(), 10);
    EXPECT_EQ(body.at("homes").items().size(), 2u);
}

// -------------------------------------------------- surface cache stats --

TEST(SurfaceCacheStats, FlowThroughPipelineAndWire) {
    lp::Pipeline pipe;
    (void)pipe.run(lp::EstimationRequest(lp::parse_source("bench:ham3")));
    const lp::CacheStats cache = pipe.cache_stats();
    // One estimate prices at least one (q, params) surface from scratch.
    EXPECT_GT(cache.surface_recomputes, 0u);
    const std::string text = cache.to_string();
    EXPECT_NE(text.find("surfaces"), std::string::npos);

    ls::ServiceStats stats;
    stats.cache = cache;
    const leqa::util::JsonValue root =
        leqa::util::json_parse(wire::serialize_stats(2, stats));
    const leqa::util::JsonValue& cache_json =
        root.at("result").at("stats").at("cache");
    EXPECT_EQ(cache_json.at("surface_recomputes").as_int(),
              static_cast<long long>(cache.surface_recomputes));
    EXPECT_EQ(cache_json.at("surface_hits").as_int(),
              static_cast<long long>(cache.surface_hits));
    EXPECT_EQ(cache_json.at("surface_evictions").as_int(),
              static_cast<long long>(cache.surface_evictions));
}

TEST(SurfaceCacheStats, ExploreAggregatesAcrossWorkers) {
    lp::Pipeline pipe;
    lc::ExplorationSpec spec;
    spec.sides = {40, 50};
    spec.capacities = {3, 5};
    spec.threads = 2;
    const lc::ExplorationResult result =
        pipe.explore(lp::parse_source("bench:ham3"), spec);
    EXPECT_EQ(result.points.size(), 4u);
    // Every worker prices surfaces; the merged counters must see them.
    EXPECT_GT(result.surface_cache.recomputes, 0u);
    EXPECT_GE(pipe.cache_stats().surface_recomputes,
              result.surface_cache.recomputes);
}
