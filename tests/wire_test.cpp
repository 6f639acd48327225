// Tests for the NDJSON wire layer: request parse/serialize round trips for
// every op, response serialize/parse round trips (lossless, per the wire
// guarantee), error mapping for malformed lines, and end-to-end agreement
// between wire-transported results and direct Pipeline::run.
#include <gtest/gtest.h>

#include <future>
#include <memory>
#include <mutex>
#include <regex>
#include <string>
#include <vector>

#include "net/session.h"
#include "report/report.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/json_value.h"

namespace ln = leqa::net;
namespace lw = leqa::service::wire;
namespace ls = leqa::service;
namespace lp = leqa::pipeline;
namespace lu = leqa::util;
namespace lf = leqa::fabric;

namespace {

lw::WireRequest parse_ok(const std::string& line) {
    const auto parsed = lw::parse_request(line);
    EXPECT_TRUE(parsed.ok()) << parsed.status().to_string();
    return parsed.value();
}

/// parse -> serialize -> parse -> serialize: both serializations and both
/// parses must agree (the request round-trip invariant).
void expect_request_roundtrip(const std::string& line) {
    const lw::WireRequest first = parse_ok(line);
    const std::string serialized = lw::serialize_request(first);
    const lw::WireRequest second = parse_ok(serialized);
    EXPECT_EQ(first, second) << serialized;
    EXPECT_EQ(lw::serialize_request(second), serialized);
}

} // namespace

// -------------------------------------------------------------- requests --

TEST(Wire, ParsesEveryRunModeOp) {
    for (const auto& [op_text, mode] :
         std::vector<std::pair<std::string, lp::RunMode>>{
             {"estimate", lp::RunMode::Estimate},
             {"map", lp::RunMode::Map},
             {"both", lp::RunMode::Both}}) {
        const lw::WireRequest request = parse_ok(
            R"({"id":7,"op":")" + op_text + R"(","source":"bench:ham3"})");
        EXPECT_EQ(request.id, 7u);
        EXPECT_EQ(request.source, "bench:ham3");
        EXPECT_EQ(lw::run_mode_of(request.op), mode);
    }
}

TEST(Wire, RequestRoundTripsAreLosslessForAllOps) {
    expect_request_roundtrip(R"({"id":1,"op":"estimate","source":"bench:ham3"})");
    expect_request_roundtrip(
        R"({"id":2,"op":"map","source":"a dir/c.qasm","priority":-3,)"
        R"("deadline_s":0.25,"label":"what if \"50x50\""})");
    expect_request_roundtrip(
        R"({"id":3,"op":"both","source":"bench:ham3","params":)"
        R"({"width":50,"height":49,"nc":3,"v":0.002,"t_move_us":80,"topology":"torus"}})");
    expect_request_roundtrip(
        R"({"id":4,"op":"sweep","source":"bench:ham3","axis":"fabric_sides",)"
        R"("values":[40,50,60]})");
    expect_request_roundtrip(
        R"({"id":5,"op":"sweep","source":"bench:ham3","axis":"v",)"
        R"("values":[0.001,0.01]})");
    expect_request_roundtrip(
        R"({"id":6,"op":"sweep","source":"bench:ham3","axis":"topology",)"
        R"("kinds":["grid","torus","line"]})");
    expect_request_roundtrip(
        R"({"id":7,"op":"calibrate","sources":["bench:ham3","x.qasm"],"apply":true})");
    expect_request_roundtrip(R"({"id":8,"op":"cancel","target":3})");
    expect_request_roundtrip(R"({"id":9,"op":"stats"})");
    expect_request_roundtrip(
        R"({"id":10,"op":"explore","source":"bench:ham3",)"
        R"("topologies":["grid","torus"],"sides":[40,50],"nc":[3,5],)"
        R"("v":[0.001,0.002],"threads":4})");
    expect_request_roundtrip(
        R"({"id":11,"op":"explore","source":"bench:ham3","sides":[40]})");
}

TEST(Wire, ExploreLinesDecodeIntoSpecs) {
    const lw::WireRequest request = parse_ok(
        R"({"id":1,"op":"explore","source":"bench:ham3",)"
        R"("topologies":["grid","line"],"sides":[8,10],"nc":[3],)"
        R"("v":[0.001],"threads":2})");
    EXPECT_EQ(request.op, lw::WireRequest::Op::Explore);
    EXPECT_EQ(request.explore.topologies,
              (std::vector<lf::TopologyKind>{lf::TopologyKind::Grid,
                                             lf::TopologyKind::Line}));
    EXPECT_EQ(request.explore.sides, (std::vector<int>{8, 10}));
    EXPECT_EQ(request.explore.capacities, (std::vector<int>{3}));
    EXPECT_EQ(request.explore.speeds, (std::vector<double>{0.001}));
    EXPECT_EQ(request.explore.threads, 2u);

    // Defaults: threads 1, axes empty except the one given.
    const lw::WireRequest minimal =
        parse_ok(R"({"id":2,"op":"explore","source":"bench:ham3","nc":[3,5]})");
    EXPECT_EQ(minimal.explore.threads, 1u);
    EXPECT_TRUE(minimal.explore.topologies.empty());
    EXPECT_TRUE(minimal.explore.sides.empty());

    // Missing source / no axis at all / bad kinds are InvalidArgument.
    EXPECT_FALSE(lw::parse_request(R"({"id":3,"op":"explore","nc":[3]})").ok());
    EXPECT_FALSE(
        lw::parse_request(R"({"id":4,"op":"explore","source":"bench:ham3"})").ok());
    EXPECT_FALSE(lw::parse_request(
                     R"({"id":5,"op":"explore","source":"bench:ham3",)"
                     R"("topologies":["moebius"]})")
                     .ok());
    EXPECT_FALSE(lw::parse_request(
                     R"({"id":6,"op":"explore","source":"bench:ham3",)"
                     R"("sides":[40.5]})")
                     .ok());
    // The daemon never spawns an unbounded thread count off one line.
    EXPECT_FALSE(lw::parse_request(
                     R"({"id":7,"op":"explore","source":"bench:ham3",)"
                     R"("sides":[40],"threads":20000})")
                     .ok());
}

TEST(Wire, ParamsPatchAppliesOverBase) {
    const lw::WireRequest request = parse_ok(
        R"({"id":1,"op":"estimate","source":"bench:ham3",)"
        R"("params":{"width":50,"topology":"torus"}})");
    lf::PhysicalParams base;
    const lf::PhysicalParams patched = request.params.apply(base);
    EXPECT_EQ(patched.width, 50);
    EXPECT_EQ(patched.topology, lf::TopologyKind::Torus);
    EXPECT_EQ(patched.height, base.height); // untouched fields keep defaults
    EXPECT_EQ(patched.nc, base.nc);
    EXPECT_FALSE(request.params.empty());
    EXPECT_TRUE(lw::ParamsPatch{}.empty());
}

TEST(Wire, MalformedLinesComeBackAsStatusesNotThrows) {
    // Broken JSON -> ParseError.
    const auto broken = lw::parse_request("{\"id\":1,");
    ASSERT_FALSE(broken.ok());
    EXPECT_EQ(broken.status().code(), lu::StatusCode::ParseError);
    EXPECT_EQ(broken.status().origin(), "wire");

    // Structurally valid JSON with bad fields -> InvalidArgument.
    for (const char* line : {
             R"({"op":"estimate","source":"bench:ham3"})",          // no id
             R"({"id":1})",                                          // no op
             R"({"id":1,"op":"frobnicate"})",                        // bad op
             R"({"id":1,"op":"estimate"})",                          // no source
             R"({"id":1,"op":"estimate","source":""})",              // empty source
             R"({"id":-2,"op":"stats"})",                            // negative id
             R"({"id":0,"op":"stats"})",                             // 0 is reserved
             R"({"id":1,"op":"sweep","source":"x"})",                // no axis
             R"({"id":1,"op":"sweep","source":"x","axis":"bogus"})", // bad axis
             R"({"id":1,"op":"sweep","source":"x","axis":"nc","values":[]})",
             R"({"id":1,"op":"cancel"})",                            // no target
             R"({"id":1,"op":"calibrate","sources":[]})",            // empty sources
             R"({"id":1,"op":"estimate","source":"x","deadline_s":0})",
             R"({"id":1,"op":"estimate","source":"x","params":{"bogus":1}})",
             // ids beyond 2^53 lose double precision: reject, don't round.
             R"({"id":9007199254740993,"op":"stats"})",
             R"({"id":1,"op":"cancel","target":9007199254740994})",
             // int fields must fit an int, not silently wrap.
             R"({"id":1,"op":"estimate","source":"x","params":{"width":4294967346}})",
             R"({"id":1,"op":"estimate","source":"x","priority":2147483648})",
             R"([1,2,3])",                                           // not an object
         }) {
        const auto parsed = lw::parse_request(line);
        ASSERT_FALSE(parsed.ok()) << line;
        EXPECT_EQ(parsed.status().code(), lu::StatusCode::InvalidArgument) << line;
    }
}

TEST(Wire, ExtractIdRecoversCorrelationFromRejectedLines) {
    EXPECT_EQ(lw::extract_id(R"({"id":41,"op":"frobnicate"})"), 41u);
    EXPECT_EQ(lw::extract_id("{{{"), 0u);
    EXPECT_EQ(lw::extract_id(R"({"op":"stats"})"), 0u);
}

TEST(Wire, SubmitCarriesSchedulingFields) {
    // The request's priority and label reach the job (its deadline is
    // Service.WireDeadlineAppliesToTheJob's); the completion callback is the
    // caller's.  Pin the lone worker, queue a priority-0 job, then the
    // priority-9 request: the request must run first.
    ls::Service service(lp::PipelineConfig{}, ls::ServiceOptions{1, 64});
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    const ls::JobHandle gate = service.submit_fn(
        [&](lp::Pipeline&, const lp::RunControl&) -> ls::JobResult {
            started.set_value();
            released.wait();
            return lu::Status(lu::StatusCode::Internal, "blocker");
        });
    started.get_future().wait();

    std::vector<std::string> order; // completion order, on the lone worker
    std::mutex order_mutex;
    const auto record = [&order, &order_mutex](std::string tag) {
        return [&order, &order_mutex, tag = std::move(tag)](const ls::JobHandle&) {
            const std::lock_guard<std::mutex> lock(order_mutex);
            order.push_back(tag);
        };
    };
    ls::SubmitOptions low;
    low.on_complete = record("low");
    const ls::JobHandle queued = service.submit_fn(
        [](lp::Pipeline&, const lp::RunControl&) -> ls::JobResult {
            return ls::JobOutput{leqa::core::CalibrationResult{}};
        },
        low);
    const ls::JobHandle job = lw::submit(
        service,
        parse_ok(R"({"id":1,"op":"estimate","source":"bench:ham3","priority":9,)"
                 R"("label":"hot"})"),
        /*nowait=*/false, record("wire"));
    EXPECT_EQ(job.label(), "hot");
    release.set_value();
    (void)gate.wait();
    (void)queued.wait();
    const ls::JobResult& result = job.wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    EXPECT_EQ(std::get<lp::EstimationResult>(result.value()).label, "hot");
    service.drain();
    EXPECT_EQ(order, (std::vector<std::string>{"wire", "low"}));
}

// ------------------------------------------------------------- responses --

TEST(Wire, SuccessResponsesRoundTripLosslesslyForAllRunModes) {
    lp::Pipeline pipe;
    for (const auto mode :
         {lp::RunMode::Estimate, lp::RunMode::Map, lp::RunMode::Both}) {
        lp::EstimationRequest request(lp::CircuitSource::from_bench("ham3"), mode);
        const ls::JobResult result{ls::JobOutput{pipe.run(request)}};
        const std::string line = lw::serialize_result(11, result);

        const auto parsed = lw::parse_response(line);
        ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
        EXPECT_EQ(parsed.value().id, 11u);
        EXPECT_TRUE(parsed.value().status.ok());
        // Lossless: re-serializing the parsed response reproduces the line.
        EXPECT_EQ(lw::serialize_response(parsed.value()), line);
    }
}

TEST(Wire, ErrorResponsesRoundTripLosslessly) {
    const lu::Status status(lu::StatusCode::NotFound, "unknown bench \"x\"", "resolve");
    const std::string line = lw::serialize_error(4, status);
    EXPECT_NE(line.find("\"error\":{\"code\":\"NotFound\""), std::string::npos);

    const auto parsed = lw::parse_response(line);
    ASSERT_TRUE(parsed.ok()) << parsed.status().to_string();
    EXPECT_EQ(parsed.value().id, 4u);
    EXPECT_EQ(parsed.value().status, status);
    EXPECT_EQ(lw::serialize_response(parsed.value()), line);

    // An originless error round-trips too.
    const lu::Status bare(lu::StatusCode::Internal, "boom");
    const auto reparsed = lw::parse_response(lw::serialize_error(9, bare));
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.value().status, bare);

    // id 0 is invalid in requests but valid in responses: it is what the
    // daemon answers for lines whose own id could not be recovered.
    const auto fallback = lw::parse_response(lw::serialize_error(0, bare));
    ASSERT_TRUE(fallback.ok());
    EXPECT_EQ(fallback.value().id, 0u);
}

TEST(Wire, WireResultIsBitIdenticalToDirectPipelineRun) {
    // The acceptance bar: a result transported over the wire carries the
    // exact estimate document a direct Pipeline::run caller serializes
    // (stage wall-times aside, which are nondeterministic by nature).
    lp::Pipeline direct;
    lp::EstimationRequest request(lp::CircuitSource::from_bench("8bitadder"));
    const lp::EstimationResult expected = direct.run(request);

    ls::Service service;
    const ls::JobResult result =
        lw::submit(service, parse_ok(R"({"id":1,"op":"estimate","source":"bench:8bitadder"})"))
            .wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();

    const auto transported =
        lw::parse_response(lw::serialize_result(1, result));
    ASSERT_TRUE(transported.ok());
    const lu::JsonValue direct_doc =
        lu::json_parse(leqa::report::result_to_json(expected));
    EXPECT_EQ(transported.value().result.at("estimate").dump(),
              direct_doc.at("estimate").dump());
    EXPECT_EQ(transported.value().result.at("circuit").dump(),
              direct_doc.at("circuit").dump());
    EXPECT_EQ(transported.value().result.at("fabric").dump(),
              direct_doc.at("fabric").dump());
}

TEST(Wire, SweepAndCalibrationPayloadsSerialize) {
    ls::Service service;
    const ls::JobResult result =
        lw::submit(service, parse_ok(R"({"id":2,"op":"sweep","source":"bench:ham3",)"
                                     R"("axis":"topology","kinds":["grid","torus"]})"))
            .wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const std::string line = lw::serialize_result(2, result);
    const auto parsed = lw::parse_response(line);
    ASSERT_TRUE(parsed.ok());
    const lu::JsonValue& payload = parsed.value().result;
    ASSERT_NE(payload.find("sweep"), nullptr);
    EXPECT_EQ(payload.at("sweep").at("points").items().size(), 2u);
    EXPECT_EQ(lw::serialize_response(parsed.value()), line);

    const ls::JobResult fit =
        lw::submit(service, parse_ok(R"({"id":3,"op":"calibrate","sources":["bench:ham3"]})"))
            .wait();
    ASSERT_TRUE(fit.ok()) << fit.status().to_string();
    const auto fit_parsed = lw::parse_response(lw::serialize_result(3, fit));
    ASSERT_TRUE(fit_parsed.ok());
    EXPECT_GT(fit_parsed.value().result.at("calibration").at("v").as_number(), 0.0);
}

TEST(Wire, ExplorePayloadSerializes) {
    ls::Service service;
    const ls::JobResult result =
        lw::submit(service, parse_ok(R"({"id":4,"op":"explore","source":"bench:ham3",)"
                                     R"("sides":[8,10],"nc":[3,5]})"))
            .wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const std::string line = lw::serialize_result(4, result);
    const auto parsed = lw::parse_response(line);
    ASSERT_TRUE(parsed.ok());
    const lu::JsonValue& payload = parsed.value().result;
    ASSERT_NE(payload.find("exploration"), nullptr);
    const lu::JsonValue& exploration = payload.at("exploration");
    EXPECT_EQ(exploration.at("points").items().size(), 4u);
    EXPECT_EQ(exploration.at("points_total").as_int(), 4);
    EXPECT_GE(exploration.at("pareto_front").items().size(), 1u);
    EXPECT_EQ(exploration.at("best_per_topology").items().size(), 1u);
    EXPECT_EQ(lw::serialize_response(parsed.value()), line);
}

TEST(Wire, CancelAckAndStatsSerialize) {
    const std::string ack = lw::serialize_cancel_ack(5, 2, true);
    const auto parsed = lw::parse_response(ack);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().id, 5u);
    EXPECT_EQ(parsed.value().result.at("target").as_int(), 2);
    EXPECT_TRUE(parsed.value().result.at("cancelled").as_bool());

    ls::Service service;
    (void)service.submit(lp::EstimationRequest(lp::CircuitSource::from_bench("ham3"))).wait();
    const std::string stats_line = lw::serialize_stats(6, service.stats());
    const auto stats = lw::parse_response(stats_line);
    ASSERT_TRUE(stats.ok());
    const lu::JsonValue& object = stats.value().result.at("stats");
    EXPECT_EQ(object.at("submitted").as_int(), 1);
    EXPECT_EQ(object.at("rejected").as_int(), 0);
    EXPECT_EQ(object.at("cache").at("circuit_misses").as_int(), 1);
    // Both latency summaries carry the full percentile ladder, p999
    // included (it saturates to the max on small windows).
    for (const char* summary : {"queue_wait", "service_time"}) {
        const lu::JsonValue& window = object.at(summary);
        ASSERT_NE(window.find("p999_s"), nullptr) << summary;
        EXPECT_GE(window.at("p999_s").as_number(), window.at("p99_s").as_number());
        EXPECT_GE(window.at("max_s").as_number(), window.at("p999_s").as_number());
    }
}

TEST(Wire, MalformedResponsesAreStatuses) {
    EXPECT_FALSE(lw::parse_response("nonsense").ok());
    EXPECT_FALSE(lw::parse_response(R"({"id":1})").ok());
    EXPECT_FALSE(
        lw::parse_response(R"({"id":1,"error":{"code":"Nope","message":"x"}})").ok());
    EXPECT_FALSE(
        lw::parse_response(R"({"id":1,"error":{"code":"Ok","message":"x"}})").ok());
}

// ------------------------------------------------------ dispatch goldens --
//
// Response lines recorded from the session dispatch before sweeps, explores,
// optimizations and calibrations shared one wire-to-job path, with the wall
// times masked.  Any change to codes, origins, labels, checkpoint names or
// result bytes shows up here.

namespace {

/// A response line with its nondeterministic wall times masked: the stage
/// times of a pipeline result and the elapsed seconds of an optimization.
std::string mask_wall_times(std::string line) {
    static const std::regex stage_times(R"("stage_times_s":\{[^}]*\})");
    static const std::regex seconds(R"("seconds":[^,}]*)");
    line = std::regex_replace(line, stage_times, R"("stage_times_s":"*")");
    return std::regex_replace(line, seconds, R"("seconds":"*")");
}

/// Request lines fed to one session, and the masked lines it answered.
struct Exchange {
    std::vector<std::string> requests;
    std::vector<std::string> responses;
};

/// A session over a one-worker service that collects what it emits.
class RecordingSession {
public:
    RecordingSession()
        : service_(lp::PipelineConfig{}, ls::ServiceOptions{1, 64}),
          session_(ln::Session::make(service_, [this](std::string line) {
              const std::lock_guard<std::mutex> lock(mutex_);
              lines_.push_back(mask_wall_times(std::move(line)));
          })) {}

    ls::Service& service() { return service_; }

    /// Feed \p requests without waiting for their jobs.
    void send(const std::vector<std::string>& requests) {
        for (const std::string& request : requests) session_->handle_line(request);
    }

    /// The masked lines emitted since the last call.
    std::vector<std::string> take() {
        const std::lock_guard<std::mutex> lock(mutex_);
        std::vector<std::string> out;
        out.swap(lines_);
        return out;
    }

    /// Feed one exchange's requests, let their jobs finish, and check the
    /// responses line for line.
    void expect(const Exchange& exchange) {
        send(exchange.requests);
        service_.drain();
        EXPECT_EQ(take(), exchange.responses) << exchange.requests.front();
    }

private:
    ls::Service service_;
    std::mutex mutex_;
    std::vector<std::string> lines_;
    std::shared_ptr<ln::Session> session_;
};

} // namespace

TEST(WireGolden, EveryJobOpAnswersAsRecorded) {
    const std::vector<Exchange> goldens = {
        {{R"({"id":1,"op":"sweep","source":"bench:ham3","axis":"fabric_sides","values":[2,8,12]})"},
         {R"({"id":1,"result":{"sweep":{"best_index":0,"points":[{"fabric":{"topology":"grid","width":2,"height":2,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"grid","width":8,"height":8,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"grid","width":12,"height":12,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277}]}}})"}},
        {{R"({"id":2,"op":"sweep","source":"bench:ham3","axis":"nc","values":[1,3,5]})"},
         {R"({"id":2,"result":{"sweep":{"best_index":1,"points":[{"fabric":{"topology":"grid","width":60,"height":60,"nc":1,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113037.327575,"latency_s":0.113037327575},{"fabric":{"topology":"grid","width":60,"height":60,"nc":3,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"grid","width":60,"height":60,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277}]}}})"}},
        {{R"({"id":3,"op":"sweep","source":"bench:ham3","axis":"v","values":[0.001,0.004]})"},
         {R"({"id":3,"result":{"sweep":{"best_index":1,"points":[{"fabric":{"topology":"grid","width":60,"height":60,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"grid","width":60,"height":60,"nc":5,"v":0.004,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":107537.700069,"latency_s":0.107537700069}]}}})"}},
        {{R"({"id":4,"op":"sweep","source":"bench:ham3","axis":"topology","kinds":["grid","torus","line"]})"},
         {R"({"id":4,"result":{"sweep":{"best_index":0,"points":[{"fabric":{"topology":"grid","width":60,"height":60,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"torus","width":60,"height":60,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"line","width":3600,"height":1,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277}]}}})"}},
        {{R"({"id":5,"op":"explore","source":"bench:ham3","topologies":["grid","torus"],"sides":[8,10],"nc":[3,5],"threads":2})"},
         {R"({"id":5,"result":{"exploration":{"points_total":8,"threads_used":2,"best_index":0,"best_per_topology":[{"topology":"grid","index":0,"latency_us":113020.800277},{"topology":"torus","index":4,"latency_us":113020.800277}],"pareto_front":[{"index":0,"area":64,"latency_us":113020.800277}],"points":[{"fabric":{"topology":"grid","width":8,"height":8,"nc":3,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"grid","width":8,"height":8,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"grid","width":10,"height":10,"nc":3,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"grid","width":10,"height":10,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"torus","width":8,"height":8,"nc":3,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"torus","width":8,"height":8,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"torus","width":10,"height":10,"nc":3,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277},{"fabric":{"topology":"torus","width":10,"height":10,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"latency_us":113020.800277,"latency_s":0.113020800277}]}}})"}},
        {{R"({"id":6,"op":"optimize","source":"bench:ham3","moves":200,"seed":7,"params":{"width":8,"height":8}})"},
         {R"({"id":6,"result":{"optimize":{"initial_latency_us":106910,"final_latency_us":106910,"improved":false,"improvement_pct":0,"moves":{"attempted":200,"accepted":159,"fast_rejected":30},"nodes_retimed":2245,"seconds":"*","homes":[27,28,35]}}})"}},
        {{R"({"id":7,"op":"calibrate","sources":["bench:ham3"]})"},
         {R"({"id":7,"result":{"calibration":{"v":0.00451283967608,"mean_abs_rel_error":4.05482277774e-12,"evaluations":90}}})"}},
        {{R"({"id":8,"op":"estimate","source":"bench:ham3","params":{"nc":4,"topology":"torus"},"label":"what-if"})"},
         {R"({"id":8,"result":{"label":"what-if","circuit":{"name":"ham3","cache_key":"bench:ham3|synth:fresh,p=anc|fabric:grid:60x60","pre_ft_gates":5,"qubits":3,"ft_ops":19,"synthesized":true},"fabric":{"topology":"torus","width":60,"height":60,"nc":4,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"stage_times_s":"*","estimate":{"model":{"zone_area_b":3,"d_uncongest_us":812.311141913,"l_cnot_avg_us":812.311141913,"l_one_qubit_avg_us":200,"covered_area":11.9866716049,"e_sq":[11.9733481481,0.0133185185185,4.93827160494e-06],"d_q_us":[812.311141913,812.311141913,812.311141913]},"critical_path":{"cnots":9,"one_qubit_ops":6,"gate_delay_us":104510,"census":{"h":1,"t":3,"tdg":2,"cnot":9,"total":15}},"latency_us":113020.800277,"latency_s":0.113020800277},"mapping":null}})"}},
        {{R"({"id":9,"op":"both","source":"bench:ham3","params":{"width":10,"height":10}})"},
         {R"({"id":9,"result":{"label":"bench:ham3","circuit":{"name":"ham3","cache_key":"bench:ham3|synth:fresh,p=anc|fabric:grid:60x60","pre_ft_gates":5,"qubits":3,"ft_ops":19,"synthesized":true},"fabric":{"topology":"grid","width":10,"height":10,"nc":5,"v":0.001,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"stage_times_s":"*","estimate":{"model":{"zone_area_b":3,"d_uncongest_us":812.311141913,"l_cnot_avg_us":812.311141913,"l_one_qubit_avg_us":200,"covered_area":11.4796186218,"e_sq":[10.9674338261,0.503988213179,0.00819658249928],"d_q_us":[812.311141913,812.311141913,812.311141913]},"critical_path":{"cnots":9,"one_qubit_ops":6,"gate_delay_us":104510,"census":{"h":1,"t":3,"tdg":2,"cnot":9,"total":15}},"latency_us":113020.800277,"latency_s":0.113020800277},"mapping":{"latency_us":107030,"latency_s":0.10703,"stats":{"one_qubit_ops":10,"cnot_ops":9,"total_hops":38,"evictions":9,"relocations":0,"total_route_us":4950,"channels":{"reservations":38,"delayed_hops":0,"total_wait_us":1150,"max_occupancy":2}},"scheduled_ops":0}}})"}},
        {{R"({"id":10,"op":"sweep","source":"bench:ham3","axis":"fabric_sides","values":[40.5]})"},
         {R"({"id":10,"error":{"code":"InvalidArgument","message":"sweep axis fabric_sides expects integers, got 40.5","origin":"sweep"}})"}},
        {{R"({"id":11,"op":"sweep","source":"bench:ham3","axis":"nc","values":[1e12]})"},
         {R"({"id":11,"error":{"code":"InvalidArgument","message":"sweep axis nc value out of range: 1e+12","origin":"sweep"}})"}},
        {{R"({"id":12,"op":"sweep","source":"bench:ham3","axis":"fabric_sides","values":[1]})"},
         {R"({"id":12,"error":{"code":"InvalidArgument","message":"requirement failed: sweep has no feasible configurations","origin":"sweep"}})"}},
        {{R"({"id":13,"op":"sweep","source":"bench:nosuchbench","axis":"v","values":[0.001]})"},
         {R"({"id":13,"error":{"code":"NotFound","message":"unknown suite benchmark \"nosuchbench\"","origin":"sweep"}})"}},
        {{R"({"id":14,"op":"estimate","source":"bench:nosuchbench"})"},
         {R"({"id":14,"error":{"code":"NotFound","message":"unknown suite benchmark \"nosuchbench\"","origin":"resolve"}})"}},
        {{R"({"id":15,"op":"explore","source":"bench:nosuchbench","sides":[8]})"},
         {R"({"id":15,"error":{"code":"NotFound","message":"unknown suite benchmark \"nosuchbench\"","origin":"explore"}})"}},
        {{R"({"id":16,"op":"optimize","source":"bench:nosuchbench"})"},
         {R"({"id":16,"error":{"code":"NotFound","message":"unknown suite benchmark \"nosuchbench\"","origin":"optimize"}})"}},
        {{R"({"id":17,"op":"calibrate","sources":["bench:nosuchbench"]})"},
         {R"({"id":17,"error":{"code":"NotFound","message":"unknown suite benchmark \"nosuchbench\"","origin":"calibrate"}})"}},
        // A Tmove so small that a schedule time is past 2^63 channel slots.
        {{R"({"id":18,"op":"map","source":"bench:ham3","params":{"t_move_us":1e-300}})"},
         {R"({"id":18,"error":{"code":"InvalidArgument","message":"requirement failed: Tmove (t_move_us) of 1e-300 us is too small: 5440 us is more than 2^63 slots","origin":"map"}})"}},
    };
    RecordingSession session;
    for (const Exchange& exchange : goldens) session.expect(exchange);
}

TEST(WireGolden, CancelledQueuedSweepAnswersAsRecorded) {
    const std::vector<Exchange> goldens = {
        {{R"({"id":20,"op":"sweep","source":"bench:ham3","axis":"fabric_sides","values":[8]})", R"({"id":21,"op":"cancel","target":20})"},
         {R"({"id":20,"error":{"code":"Cancelled","message":"cancelled while queued","origin":"queue"}})",
          R"({"id":21,"result":{"target":20,"cancelled":true}})"}},
    };
    RecordingSession session;
    std::promise<void> started;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    const ls::JobHandle gate = session.service().submit_fn(
        [&](lp::Pipeline&, const lp::RunControl&) -> ls::JobResult {
            started.set_value();
            released.wait();
            return lu::Status(lu::StatusCode::Internal, "blocker");
        });
    started.get_future().wait(); // the lone worker is pinned: the sweep queues
    session.send(goldens.front().requests);
    EXPECT_EQ(session.take(), goldens.front().responses);
    release.set_value();
    (void)gate.wait();
    session.service().drain();
    EXPECT_TRUE(session.take().empty()); // the cancelled sweep never ran
}

TEST(WireGolden, AppliedCalibrationRetunesLaterRunsAsRecorded) {
    const std::vector<Exchange> goldens = {
        {{R"({"id":30,"op":"calibrate","sources":["bench:ham3"],"apply":true})"},
         {R"({"id":30,"result":{"calibration":{"v":0.00451283967608,"mean_abs_rel_error":4.05482277774e-12,"evaluations":90}}})"}},
        {{R"({"id":31,"op":"estimate","source":"bench:ham3"})"},
         {R"({"id":31,"result":{"label":"bench:ham3","circuit":{"name":"ham3","cache_key":"bench:ham3|synth:fresh,p=anc|fabric:grid:60x60","pre_ft_gates":5,"qubits":3,"ft_ops":19,"synthesized":true},"fabric":{"topology":"grid","width":60,"height":60,"nc":5,"v":0.00451283967608,"t_move_us":100,"gate_delays_us":{"h":5440,"t":10940,"pauli":5240,"s":5240,"cnot":4930}},"stage_times_s":"*","estimate":{"model":{"zone_area_b":3,"d_uncongest_us":180.000000048,"l_cnot_avg_us":180.000000048,"l_one_qubit_avg_us":200,"covered_area":11.9864487311,"e_sq":[11.9729026105,0.0135409723561,5.1482516046e-06],"d_q_us":[180.000000048,180.000000048,180.000000048]},"critical_path":{"cnots":9,"one_qubit_ops":6,"gate_delay_us":104510,"census":{"h":1,"t":3,"tdg":2,"cnot":9,"total":15}},"latency_us":107330,"latency_s":0.10733},"mapping":null}})"}},
    };
    RecordingSession session;
    for (const Exchange& exchange : goldens) session.expect(exchange);
}
