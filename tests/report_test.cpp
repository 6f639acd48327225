// Tests for the JSON writer, the report module, and the sweep API.
#include <gtest/gtest.h>

#include "benchgen/suite.h"
#include "core/explore.h"
#include "pipeline/pipeline.h"
#include "qspr/qspr.h"
#include "report/report.h"
#include "synth/ft_synth.h"
#include "util/error.h"
#include "util/json.h"

namespace lb = leqa::benchgen;
namespace lcore = leqa::core;
namespace lf = leqa::fabric;
namespace lpipe = leqa::pipeline;
namespace lq = leqa::qspr;
namespace lu = leqa::util;
using leqa::util::InternalError;

namespace {

/// Tiny structural validator: balanced braces/brackets outside strings and
/// balanced quotes (sufficient to catch emitter bugs without a parser).
bool json_balanced(const std::string& text) {
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : text) {
        if (in_string) {
            if (escaped) escaped = false;
            else if (c == '\\') escaped = true;
            else if (c == '"') in_string = false;
            continue;
        }
        switch (c) {
            case '"': in_string = true; break;
            case '{': case '[': ++depth; break;
            case '}': case ']': --depth; break;
            default: break;
        }
        if (depth < 0) return false;
    }
    return depth == 0 && !in_string;
}

} // namespace

// ------------------------------------------------------------ JsonWriter --

TEST(JsonWriter, BasicDocument) {
    lu::JsonWriter json;
    json.begin_object();
    json.kv("name", "leqa");
    json.kv("qubits", std::size_t{48});
    json.kv("latency", 1.5);
    json.kv("valid", true);
    json.key("tags").begin_array().value("a").value("b").end_array();
    json.key("nothing").null();
    json.end_object();
    const std::string text = json.str();
    EXPECT_EQ(text,
              "{\"name\":\"leqa\",\"qubits\":48,\"latency\":1.5,\"valid\":true,"
              "\"tags\":[\"a\",\"b\"],\"nothing\":null}");
    EXPECT_TRUE(json_balanced(text));
}

TEST(JsonWriter, EscapesSpecialCharacters) {
    EXPECT_EQ(lu::JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(lu::JsonWriter::escape(std::string("x\x01y")), "x\\u0001y");
    lu::JsonWriter json;
    json.begin_object().kv("gf2^16", "a\"quote").end_object();
    EXPECT_TRUE(json_balanced(json.str()));
}

TEST(JsonWriter, NestedContainers) {
    lu::JsonWriter json;
    json.begin_array();
    for (int i = 0; i < 3; ++i) {
        json.begin_object().kv("i", static_cast<long long>(i)).end_object();
    }
    json.end_array();
    EXPECT_EQ(json.str(), "[{\"i\":0},{\"i\":1},{\"i\":2}]");
}

TEST(JsonWriter, MisuseIsCaught) {
    {
        lu::JsonWriter json;
        json.begin_object();
        EXPECT_THROW(json.value(1.0), InternalError); // value without key
    }
    {
        lu::JsonWriter json;
        json.begin_array();
        EXPECT_THROW(json.key("k"), InternalError); // key in array
    }
    {
        lu::JsonWriter json;
        json.begin_object();
        EXPECT_THROW((void)json.str(), InternalError); // incomplete
    }
    {
        lu::JsonWriter json;
        json.begin_object().key("k");
        EXPECT_THROW(json.end_object(), InternalError); // dangling key
    }
}

// ---------------------------------------------------------------- report --

TEST(Report, EstimateJsonContainsModelFields) {
    lpipe::Pipeline pipe;
    const std::string json = leqa::report::result_to_json(
        pipe.run(lpipe::EstimationRequest(lpipe::CircuitSource::from_bench("ham3"))));
    EXPECT_TRUE(json_balanced(json));
    for (const char* field :
         {"\"name\":\"ham3\"", "\"zone_area_b\"",
          "\"l_cnot_avg_us\"", "\"e_sq\"", "\"critical_path\"", "\"latency_us\"",
          "\"gate_delays_us\"", "\"cnot\""}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
}

TEST(Report, QsprJsonContainsStats) {
    const auto ft = leqa::synth::ft_synthesize(lb::ham3()).circuit;
    const lf::PhysicalParams params;
    const auto result = lq::QsprMapper(params).map(ft);
    const std::string json = leqa::report::qspr_result_to_json(result, params, "ham3");
    EXPECT_TRUE(json_balanced(json));
    for (const char* field : {"\"tool\":\"qspr\"", "\"total_hops\"", "\"channels\"",
                              "\"latency_us\"", "\"delayed_hops\""}) {
        EXPECT_NE(json.find(field), std::string::npos) << field;
    }
}

TEST(Report, ScheduleCsvRoundTrip) {
    const auto ft = leqa::synth::ft_synthesize(lb::ham3()).circuit;
    lq::QsprOptions options;
    options.collect_schedule = true;
    const auto result = lq::QsprMapper(lf::PhysicalParams{}, options).map(ft);
    const std::string csv = leqa::report::schedule_to_csv(result, ft);
    // Header + one line per op.
    std::size_t lines = 0;
    for (const char c : csv) {
        if (c == '\n') ++lines;
    }
    EXPECT_EQ(lines, ft.size() + 1);
    EXPECT_NE(csv.find("gate_index,gate,start_us,finish_us,ulb"), std::string::npos);
    EXPECT_NE(csv.find("cnot"), std::string::npos);
}

TEST(Report, ScheduleCsvRequiresCollectedSchedule) {
    const auto ft = leqa::synth::ft_synthesize(lb::ham3()).circuit;
    const auto result = lq::QsprMapper(lf::PhysicalParams{}).map(ft);
    EXPECT_THROW((void)leqa::report::schedule_to_csv(result, ft),
                 leqa::util::InputError);
}

// ----------------------------------------------------------------- sweeps --

TEST(Sweep, FabricSidesFindsMinimumAndSkipsInfeasible) {
    lpipe::Pipeline pipe;
    const auto result = pipe.sweep_fabric_sides(
        lpipe::CircuitSource::from_bench("gf2^16mult"), {2, 6, 10, 20, 40, 60}); // 48 qubits
    // side 2 and 6 cannot host 48 qubits -> skipped.
    EXPECT_EQ(result.points.size(), 4u);
    for (const auto& point : result.points) {
        EXPECT_GE(static_cast<std::size_t>(point.params.width) *
                      static_cast<std::size_t>(point.params.height),
                  48u);
        EXPECT_GE(point.estimate.latency_us, result.best().estimate.latency_us);
    }
}

TEST(Sweep, AllSidesInfeasibleThrows) {
    lpipe::Pipeline pipe;
    EXPECT_THROW((void)pipe.sweep_fabric_sides(
                     lpipe::CircuitSource::from_bench("gf2^16mult"), {2, 3}),
                 leqa::util::InputError);
}

TEST(Sweep, ChannelCapacityMonotone) {
    lpipe::Pipeline pipe;
    lcore::ExplorationSpec spec;
    spec.capacities = {1, 2, 5, 10};
    const auto result = pipe.sweep(lpipe::CircuitSource::from_bench("hwb15ps"), spec);
    ASSERT_EQ(result.points.size(), 4u);
    for (std::size_t i = 0; i + 1 < result.points.size(); ++i) {
        EXPECT_GE(result.points[i].estimate.latency_us,
                  result.points[i + 1].estimate.latency_us - 1e-9);
    }
    // Best is the largest capacity (ties resolve to the first minimum).
    EXPECT_GE(result.points.back().params.nc, 5);
}

TEST(Sweep, SpeedMonotone) {
    lpipe::Pipeline pipe;
    const auto source = lpipe::CircuitSource::from_bench("hwb15ps");
    const auto result = pipe.sweep_speed(source, {1e-4, 1e-3, 1e-2});
    ASSERT_EQ(result.points.size(), 3u);
    EXPECT_GT(result.points[0].estimate.latency_us,
              result.points[2].estimate.latency_us);
    EXPECT_EQ(result.best_index, 2u);
    EXPECT_THROW((void)pipe.sweep_speed(source, {-1.0}), leqa::util::InputError);
}
