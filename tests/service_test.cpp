// Tests for the async service boundary: submit/wait/poll/cancel semantics,
// priorities, deadlines, the no-exception-escapes guarantee, drain/shutdown
// lifecycle, stats, and bit-identical agreement with direct Pipeline::run.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "service/service.h"
#include "service/wire.h"
#include "util/error.h"

namespace ls = leqa::service;
namespace lp = leqa::pipeline;
namespace lu = leqa::util;
namespace lw = leqa::service::wire;

namespace {

/// A job body that parks its worker until release() is called; used to pin
/// the (single-threaded) service so later submissions stay queued.
class Blocker {
public:
    [[nodiscard]] ls::JobFn job() {
        return [this](lp::Pipeline&, const lp::RunControl&) -> ls::JobResult {
            started_.set_value();
            release_future_.wait();
            return lu::Status(lu::StatusCode::Internal, "blocker never succeeds");
        };
    }
    void wait_until_running() { started_.get_future().wait(); }
    void release() { release_.set_value(); }

private:
    std::promise<void> started_;
    std::promise<void> release_;
    std::shared_future<void> release_future_{release_.get_future().share()};
};

const lp::EstimationResult& run_output(const ls::JobResult& result) {
    return std::get<lp::EstimationResult>(result.value());
}

/// Submit one request line through the daemon's wire-to-job dispatch.
ls::JobHandle submit_line(ls::Service& service, const std::string& line,
                          std::function<void(const ls::JobHandle&)> on_complete = {}) {
    const lu::Result<lw::WireRequest> request = lw::parse_request(line);
    EXPECT_TRUE(request.ok()) << request.status().to_string();
    return lw::submit(service, request.value(), /*nowait=*/false, std::move(on_complete));
}

ls::ServiceOptions with_threads(std::size_t threads) {
    ls::ServiceOptions options;
    options.threads = threads;
    return options;
}

ls::SubmitOptions with_priority(int priority) {
    ls::SubmitOptions options;
    options.priority = priority;
    return options;
}

ls::SubmitOptions with_deadline(double seconds) {
    ls::SubmitOptions options;
    options.deadline_s = seconds;
    return options;
}

} // namespace

// ---------------------------------------------------------------- basics --

TEST(Service, SubmitWaitMatchesDirectPipelineRun) {
    lp::Pipeline direct;
    lp::EstimationRequest request(lp::CircuitSource::from_bench("ham3"));
    const lp::EstimationResult expected = direct.run(request);

    ls::Service service(lp::PipelineConfig{}, with_threads(2));
    const ls::JobHandle handle = service.submit(request);
    const ls::JobResult& result = handle.wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const lp::EstimationResult& got = run_output(result);

    // Bit-identical estimates: the service adds scheduling, not arithmetic.
    ASSERT_TRUE(got.estimate.has_value());
    EXPECT_EQ(got.estimate->latency_us, expected.estimate->latency_us);
    EXPECT_EQ(got.estimate->zone_area_b, expected.estimate->zone_area_b);
    EXPECT_EQ(got.estimate->e_sq, expected.estimate->e_sq);
    EXPECT_EQ(got.circuit.ft_ops, expected.circuit.ft_ops);
    EXPECT_EQ(handle.poll(), ls::JobState::Done);
}

TEST(Service, ManyConcurrentJobsAllComplete) {
    ls::Service service(lp::PipelineConfig{}, with_threads(4));
    std::vector<ls::JobHandle> handles;
    for (int i = 0; i < 16; ++i) {
        lp::EstimationRequest request(lp::CircuitSource::from_bench(
            i % 2 == 0 ? "ham3" : "8bitadder"));
        handles.push_back(service.submit(std::move(request)));
    }
    for (const ls::JobHandle& handle : handles) {
        EXPECT_TRUE(handle.wait().ok());
    }
    const ls::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 16u);
    EXPECT_EQ(stats.completed, 16u);
    EXPECT_EQ(stats.succeeded, 16u);
    // Two distinct circuits, built once each, whatever the interleaving.
    EXPECT_EQ(stats.cache.circuit_misses, 2u);
}

TEST(Service, PriorityOrdersQueuedJobs) {
    Blocker blocker;
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobHandle gate = service.submit_fn(blocker.job());
    blocker.wait_until_running();

    // Queued while the only worker is pinned: the high-priority job must
    // run first even though it was submitted last.
    std::vector<int> order;
    std::mutex order_mutex;
    const auto record = [&](int tag) {
        return [&order, &order_mutex, tag](lp::Pipeline&,
                                           const lp::RunControl&) -> ls::JobResult {
            const std::lock_guard<std::mutex> lock(order_mutex);
            order.push_back(tag);
            return ls::JobOutput{leqa::core::CalibrationResult{}};
        };
    };
    const ls::JobHandle low = service.submit_fn(record(0), with_priority(0));
    const ls::JobHandle mid = service.submit_fn(record(1), with_priority(1));
    const ls::JobHandle high = service.submit_fn(record(2), with_priority(7));
    blocker.release();
    (void)low.wait();
    (void)mid.wait();
    (void)high.wait();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 2);
    EXPECT_EQ(order[1], 1);
    EXPECT_EQ(order[2], 0);
    EXPECT_FALSE(gate.wait().ok()); // the blocker's Internal status
}

// ---------------------------------------------------------------- cancel --

TEST(Service, CancelledQueuedJobNeverExecutes) {
    Blocker blocker;
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobHandle gate = service.submit_fn(blocker.job());
    blocker.wait_until_running();

    // Queue a job for a circuit nothing else uses, cancel it while queued:
    // the pipeline cache must never see that circuit (the "never executes"
    // guarantee, observable via the cache-stats delta).
    const lp::CacheStats before = service.pipeline().cache_stats();
    ls::JobHandle doomed =
        service.submit(lp::EstimationRequest(lp::CircuitSource::from_bench("hwb15ps")));
    EXPECT_EQ(doomed.poll(), ls::JobState::Queued);
    EXPECT_TRUE(doomed.cancel());
    EXPECT_EQ(doomed.poll(), ls::JobState::Cancelled);
    const ls::JobResult& result = doomed.wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), lu::StatusCode::Cancelled);
    EXPECT_EQ(result.status().origin(), "queue");

    blocker.release();
    (void)gate.wait();
    service.drain();
    const lp::CacheStats after = service.pipeline().cache_stats();
    EXPECT_EQ(after.circuit_misses, before.circuit_misses); // never resolved
    EXPECT_EQ(service.stats().cancelled, 1u);

    // Cancelling a finished job is a no-op.
    EXPECT_FALSE(doomed.cancel());
}

TEST(Service, CancelRunningJobStopsAtNextCheckpoint) {
    Blocker blocker;
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobHandle gate = service.submit_fn(blocker.job());
    blocker.wait_until_running();

    // A running job observes the cooperative flag at the next pipeline
    // stage checkpoint.  Set the flag while the job is still queued-behind
    // the blocker via a pre-cancelled control: cancel() on the queued job
    // transitions it immediately, so instead submit, let it start, and
    // cancel mid-run is impossible to schedule deterministically here --
    // what we can pin down is the checkpoint itself:
    lp::Pipeline pipe;
    lp::RunControl control;
    control.cancel.store(true);
    const auto result = pipe.run_result(
        lp::EstimationRequest(lp::CircuitSource::from_bench("ham3")), &control);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), lu::StatusCode::Cancelled);
    EXPECT_EQ(result.status().origin(), "resolve"); // first checkpoint
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 0u); // stopped before work

    blocker.release();
    (void)gate.wait();
}

// -------------------------------------------------------------- deadline --

TEST(Service, DeadlineExpiredInQueueNeverExecutes) {
    Blocker blocker;
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobHandle gate = service.submit_fn(blocker.job());
    blocker.wait_until_running();

    const lp::CacheStats before = service.pipeline().cache_stats();
    const ls::JobHandle late = service.submit(
        lp::EstimationRequest(lp::CircuitSource::from_bench("hwb15ps")),
        with_deadline(1e-4));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    blocker.release();
    (void)gate.wait();

    const ls::JobResult& result = late.wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), lu::StatusCode::DeadlineExceeded);
    EXPECT_EQ(service.pipeline().cache_stats().circuit_misses, before.circuit_misses);
    EXPECT_EQ(service.stats().deadline_expired, 1u);
}

TEST(Service, HugeDeadlineMeansNoDeadlineNotInstantExpiry) {
    // A deadline past the steady_clock range used to wrap negative in the
    // double -> ns conversion and expire the job before it ran.
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobHandle job = service.submit(
        lp::EstimationRequest(lp::CircuitSource::from_bench("ham3")),
        with_deadline(1e10));
    const ls::JobResult& result = job.wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
}

// ---------------------------------------------- the no-throw boundary ----

TEST(Service, FailuresSurfaceAsStatusNotExceptions) {
    ls::Service service(lp::PipelineConfig{}, with_threads(2));

    // Unknown bench -> NotFound (spec parsed inside the job).
    const auto not_found =
        submit_line(service, R"({"id":1,"op":"estimate","source":"bench:nosuchbench"})")
            .wait();
    ASSERT_FALSE(not_found.ok());
    EXPECT_EQ(not_found.status().code(), lu::StatusCode::NotFound);
    EXPECT_EQ(not_found.status().origin(), "resolve");

    // Missing file -> NotFound.
    const auto missing =
        submit_line(service,
                    R"({"id":2,"op":"estimate","source":"/nonexistent/leqa/x.qasm"})")
            .wait();
    ASSERT_FALSE(missing.ok());
    EXPECT_EQ(missing.status().code(), lu::StatusCode::NotFound);

    // Invalid parameter override -> InvalidArgument from the config stage.
    const auto invalid =
        submit_line(service,
                    R"({"id":3,"op":"estimate","source":"bench:ham3","params":{"width":-4}})")
            .wait();
    ASSERT_FALSE(invalid.ok());
    EXPECT_EQ(invalid.status().code(), lu::StatusCode::InvalidArgument);
    EXPECT_EQ(invalid.status().origin(), "config");

    // A job body that throws arbitrary exceptions -> Internal, not a crash.
    const auto internal =
        service
            .submit_fn([](lp::Pipeline&, const lp::RunControl&) -> ls::JobResult {
                throw std::runtime_error("job bug");
            })
            .wait();
    ASSERT_FALSE(internal.ok());
    EXPECT_EQ(internal.status().code(), lu::StatusCode::Internal);
    EXPECT_EQ(internal.status().origin(), "job");

    const ls::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.failed, 4u);
}

TEST(Service, ParseFailureSurfacesAsParseError) {
    // A syntactically broken netlist file maps to ParseError (not the
    // generic InvalidArgument): the boundary keeps the taxonomy.
    const std::string path = ::testing::TempDir() + "leqa_service_broken.qasm";
    {
        std::FILE* out = std::fopen(path.c_str(), "w");
        ASSERT_NE(out, nullptr);
        std::fputs("OPENQASM 2.0;\nqreg q[2];\nbogusgate q[0];\n", out);
        std::fclose(out);
    }
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const auto result =
        submit_line(service, R"({"id":1,"op":"estimate","source":")" + path + R"("})")
            .wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), lu::StatusCode::ParseError);
    std::remove(path.c_str());
}

// ------------------------------------------------------- sweep/calibrate --

TEST(Service, SweepJobMatchesPipelineSweep) {
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobHandle job = submit_line(
        service,
        R"({"id":1,"op":"sweep","source":"bench:ham3","axis":"fabric_sides","values":[40,60]})");
    EXPECT_EQ(job.label(), "sweep:fabric_sides:bench:ham3");
    const ls::JobResult& result = job.wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto& sweep = std::get<leqa::core::SweepResult>(result.value());
    ASSERT_EQ(sweep.points.size(), 2u);

    lp::Pipeline direct;
    const auto expected =
        direct.sweep_fabric_sides(lp::CircuitSource::from_bench("ham3"), {40, 60});
    for (std::size_t i = 0; i < sweep.points.size(); ++i) {
        EXPECT_EQ(sweep.points[i].estimate.latency_us,
                  expected.points[i].estimate.latency_us);
    }

    // Fractional sides are an InvalidArgument, not a crash.
    const ls::JobResult bad =
        submit_line(
            service,
            R"({"id":2,"op":"sweep","source":"bench:ham3","axis":"fabric_sides","values":[40.5]})")
            .wait();
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), lu::StatusCode::InvalidArgument);
    EXPECT_EQ(bad.status().origin(), "sweep");
}

TEST(Service, CancelledQueuedSweepNeverTouchesThePipeline) {
    Blocker blocker;
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobHandle gate = service.submit_fn(blocker.job());
    blocker.wait_until_running();

    const ls::JobHandle sweep = submit_line(
        service,
        R"({"id":1,"op":"sweep","source":"bench:ham3","axis":"nc","values":[1,3]})");
    EXPECT_TRUE(sweep.cancel());
    blocker.release();
    (void)gate.wait();
    const ls::JobResult& result = sweep.wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), lu::StatusCode::Cancelled);
    EXPECT_EQ(result.status().origin(), "queue");
    EXPECT_EQ(service.pipeline().cache_stats().circuit_misses, 0u);
}

TEST(Service, WireJobsCarryOpLabels) {
    // Labels only: the WireGolden tests pin each op's response and error
    // lines.  An unknown bench keeps every job cheap.
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const std::vector<std::pair<std::string, std::string>> cases = {
        {R"({"id":1,"op":"estimate","source":"bench:nosuchbench"})", "bench:nosuchbench"},
        {R"({"id":2,"op":"sweep","source":"bench:nosuchbench","axis":"v","values":[0.001]})",
         "sweep:v:bench:nosuchbench"},
        {R"({"id":3,"op":"explore","source":"bench:nosuchbench","sides":[8]})",
         "explore:bench:nosuchbench"},
        {R"({"id":4,"op":"optimize","source":"bench:nosuchbench"})",
         "optimize:bench:nosuchbench"},
        {R"({"id":5,"op":"calibrate","sources":["bench:nosuchbench"]})", "calibrate"},
    };
    for (const auto& [line, label] : cases) {
        EXPECT_EQ(submit_line(service, line).label(), label) << line;
    }
    // A request label wins over the default.
    EXPECT_EQ(submit_line(service,
                          R"({"id":6,"op":"estimate","source":"bench:ham3","label":"mine"})")
                  .label(),
              "mine");
    // Cancel and stats are answered inline by the session, never queued.
    const lw::WireRequest stats = lw::parse_request(R"({"id":7,"op":"stats"})").value();
    EXPECT_THROW((void)lw::submit(service, stats), lu::InternalError);
}

TEST(Service, WireDeadlineAppliesToTheJob) {
    Blocker blocker;
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobHandle gate = service.submit_fn(blocker.job());
    blocker.wait_until_running();
    const ls::JobHandle late = submit_line(
        service,
        R"({"id":1,"op":"sweep","source":"bench:ham3","axis":"nc","values":[1],"deadline_s":0.0001})");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    blocker.release();
    (void)gate.wait();
    const ls::JobResult& result = late.wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), lu::StatusCode::DeadlineExceeded);
    EXPECT_EQ(service.pipeline().cache_stats().circuit_misses, 0u);
}

TEST(Service, CalibrationJobFitsAndApplies) {
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    const ls::JobResult result =
        submit_line(service,
                    R"({"id":1,"op":"calibrate","sources":["bench:ham3"],"apply":true})")
            .wait();
    ASSERT_TRUE(result.ok()) << result.status().to_string();
    const auto& fit = std::get<leqa::core::CalibrationResult>(result.value());
    EXPECT_GT(fit.v, 0.0);
    EXPECT_DOUBLE_EQ(service.pipeline().config().params.v, fit.v);
}

// ------------------------------------------------------------- lifecycle --

TEST(Service, DrainWaitsForAllAndShutdownRejectsLateWork) {
    ls::Service service(lp::PipelineConfig{}, with_threads(2));
    std::vector<ls::JobHandle> handles;
    for (int i = 0; i < 6; ++i) {
        handles.push_back(
            service.submit(lp::EstimationRequest(lp::CircuitSource::from_bench("ham3"))));
    }
    service.drain();
    for (const ls::JobHandle& handle : handles) {
        EXPECT_NE(handle.poll(), ls::JobState::Queued);
        EXPECT_NE(handle.poll(), ls::JobState::Running);
    }

    service.shutdown();
    service.shutdown(); // idempotent
    const ls::JobHandle late =
        service.submit(lp::EstimationRequest(lp::CircuitSource::from_bench("ham3")));
    const ls::JobResult& result = late.wait();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), lu::StatusCode::Cancelled);
}

TEST(Service, OnCompleteFiresForEveryOutcomeBeforeDrainReturns) {
    std::atomic<int> completions{0};
    ls::Service service(lp::PipelineConfig{}, with_threads(2));
    ls::SubmitOptions options;
    options.on_complete = [&completions](const ls::JobHandle& handle) {
        (void)handle.wait(); // result is already set when the callback fires
        ++completions;
    };
    (void)service.submit(lp::EstimationRequest(lp::CircuitSource::from_bench("ham3")),
                         options);
    (void)submit_line(service, R"({"id":1,"op":"estimate","source":"bench:nosuchbench"})",
                      options.on_complete);
    service.drain();
    EXPECT_EQ(completions.load(), 2);
}

TEST(Service, StatsTrackLatencyPercentiles) {
    ls::Service service(lp::PipelineConfig{}, with_threads(1));
    for (int i = 0; i < 8; ++i) {
        (void)service.submit(
            lp::EstimationRequest(lp::CircuitSource::from_bench("ham3")));
    }
    service.drain();
    const ls::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.service_time.count, 8u);
    EXPECT_GT(stats.service_time.p50_s, 0.0);
    EXPECT_GE(stats.service_time.p99_s, stats.service_time.p50_s);
    EXPECT_GE(stats.service_time.p999_s, stats.service_time.p99_s);
    EXPECT_GE(stats.service_time.max_s, stats.service_time.p999_s);
    // 8 samples cannot resolve a 99.9th percentile: nearest-rank saturates
    // it to the window maximum until the ring holds >= 1000.
    EXPECT_EQ(stats.service_time.p999_s, stats.service_time.max_s);
    EXPECT_GE(stats.queue_wait.p50_s, 0.0);
    EXPECT_FALSE(stats.to_string().empty());
    EXPECT_EQ(stats.queue_depth, 0u);
    EXPECT_EQ(stats.running, 0u);
}

TEST(Service, StatsSnapshotsStayConsistentDuringSubmitStorm) {
    // stats() copies the counters in one critical section, so a reader
    // hammering it during a submit storm must only ever observe internally
    // consistent values: monotone submitted/completed, completed never
    // ahead of submitted, and the per-outcome counters summing exactly to
    // completed (they are incremented together under the core mutex).
    // Under TSan (the CI tsan job runs this suite) this is the data-race
    // regression test for the ServiceStats snapshot path.
    ls::Service service(lp::PipelineConfig{}, with_threads(4));

    std::atomic<bool> done{false};
    std::atomic<int> violations{0};
    std::thread reader([&] {
        std::size_t last_submitted = 0;
        std::size_t last_completed = 0;
        while (!done.load()) {
            const ls::ServiceStats snap = service.stats();
            if (snap.submitted < last_submitted) ++violations;
            if (snap.completed < last_completed) ++violations;
            if (snap.completed > snap.submitted) ++violations;
            const std::size_t settled = snap.succeeded + snap.cancelled +
                                        snap.deadline_expired + snap.rejected +
                                        snap.failed;
            if (settled != snap.completed) ++violations;
            last_submitted = snap.submitted;
            last_completed = snap.completed;
        }
    });

    constexpr std::size_t kJobs = 200;
    std::vector<ls::JobHandle> handles;
    handles.reserve(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
        handles.push_back(service.submit_fn(
            [](lp::Pipeline&, const lp::RunControl&) -> ls::JobResult {
                return ls::JobOutput{leqa::core::CalibrationResult{}};
            }));
    }
    for (const ls::JobHandle& handle : handles) (void)handle.wait();
    service.drain();
    done.store(true);
    reader.join();

    EXPECT_EQ(violations.load(), 0);
    const ls::ServiceStats final_stats = service.stats();
    EXPECT_EQ(final_stats.submitted, kJobs);
    EXPECT_EQ(final_stats.completed, kJobs);
    EXPECT_EQ(final_stats.succeeded, kJobs);
    EXPECT_EQ(final_stats.queue_depth, 0u);
    EXPECT_EQ(final_stats.running, 0u);
}

TEST(Service, NowaitSubmitRejectsWithUnavailableWhenQueueIsFull) {
    ls::ServiceOptions service_options = with_threads(1);
    service_options.max_queue = 2;
    ls::Service service(lp::PipelineConfig{}, service_options);

    Blocker blocker;
    const ls::JobHandle gate = service.submit_fn(blocker.job());
    blocker.wait_until_running(); // the lone worker is pinned

    // The accepted jobs report NotFound when they actually run -- a marker
    // distinguishable from the Unavailable a rejection carries.
    const auto ran_marker = [](lp::Pipeline&, const lp::RunControl&) -> ls::JobResult {
        return lu::Status(lu::StatusCode::NotFound, "ran");
    };
    ls::SubmitOptions nowait;
    nowait.nowait = true;
    const ls::JobHandle first = service.submit_fn(ran_marker, nowait);
    const ls::JobHandle second = service.submit_fn(ran_marker, nowait);
    // The queue now holds max_queue jobs: a nowait submit must complete
    // immediately (no blocking) with the retryable rejection.
    const ls::JobHandle rejected = service.submit_fn(ran_marker, nowait);
    EXPECT_EQ(rejected.poll(), ls::JobState::Done);
    const ls::JobResult& result = rejected.wait();
    EXPECT_EQ(result.status().code(), lu::StatusCode::Unavailable);
    EXPECT_TRUE(lu::status_code_retryable(result.status().code()));

    blocker.release();
    EXPECT_EQ(first.wait().status().code(), lu::StatusCode::NotFound);
    EXPECT_EQ(second.wait().status().code(), lu::StatusCode::NotFound);
    const ls::ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rejected, 1u);
    // A rejection still counts as completed, so drain accounting holds.
    EXPECT_EQ(stats.submitted, 4u);
    service.drain();
}
