/// \file service.h
/// \brief Service-grade async API over the pipeline: a fixed worker pool, a
///        priority job queue, cancellable/deadlined jobs, and a non-throwing
///        Status/Result boundary.
///
/// The paper positions LEQA as the fast inner loop of design-space
/// exploration; a long-lived estimator answering many concurrent what-if
/// queries (fabric sweeps, QECC exploration, HAQA-style hardware-guided
/// search) needs lifecycle and error handling that the synchronous,
/// exception-throwing `Pipeline::run` does not provide.  `Service` owns
/// that once:
///
///   - `submit(...) -> JobHandle`: enqueue work with a priority, an
///     optional deadline, and a completion callback; higher priority runs
///     first, FIFO within a priority level;
///   - `JobHandle::wait()/poll()/cancel()`: cancellation is cooperative --
///     a queued job is cancelled immediately (it never executes), a running
///     job observes the flag at the pipeline's stage checkpoints and stops
///     between stages;
///   - no exception ever escapes the boundary: every failure surfaces as a
///     `util::Status` (code + message + origin stage) inside the job's
///     `Result`;
///   - `drain()` / `shutdown()` for graceful lifecycle, `stats()` for
///     queue depth, latency percentiles, and pipeline-cache passthrough.
///
/// Estimate/map jobs, design-space sweeps, and calibration fits all run
/// through the same queue, so one daemon (see cli/leqa_server.cpp) serves
/// every request kind the pipeline facade supports; `wire::submit` is the
/// one place that turns a decoded request into a job.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/calibrate.h"
#include "core/explore.h"
#include "core/sweep.h"
#include "pipeline/pipeline.h"
#include "util/status.h"

namespace leqa::service {

/// Fixed configuration of one Service instance.
struct ServiceOptions {
    std::size_t threads = 0;     ///< worker threads; 0 = hardware concurrency
    std::size_t max_queue = 1024; ///< queued-job bound; submit blocks when
                                  ///< full (or rejects, see SubmitOptions::nowait)
};

/// What a job can produce: one pipeline run, a design-space sweep, a
/// calibration fit, a multi-dimensional exploration, or a placement
/// optimization.
using JobOutput = std::variant<pipeline::EstimationResult, core::SweepResult,
                               core::CalibrationResult, core::ExplorationResult,
                               core::OptimizeResult>;

/// Every job completes with exactly one of these: a JobOutput or a non-OK
/// Status.  Nothing throws across the boundary.
using JobResult = util::Result<JobOutput>;

/// Observable lifecycle of a job.  `Cancelled` is terminal and means the
/// job's result carries StatusCode::Cancelled (whether it was cancelled in
/// the queue or between pipeline stages).
enum class JobState { Queued, Running, Done, Cancelled };

[[nodiscard]] const std::string& job_state_name(JobState state);

class Service;
namespace detail {
class Job;
struct ServiceCore;
} // namespace detail

/// Shared, copyable handle to one submitted job.  Valid after the Service
/// drains or shuts down (completion state is owned by the job itself).
class JobHandle {
public:
    JobHandle() = default;

    [[nodiscard]] bool valid() const { return job_ != nullptr; }
    [[nodiscard]] std::uint64_t id() const;
    [[nodiscard]] const std::string& label() const;
    [[nodiscard]] JobState poll() const;

    /// Request cancellation.  A job still in the queue is completed as
    /// Cancelled right here (it will never execute) and true is returned.
    /// A running job keeps the cooperative flag set -- it stops at the next
    /// pipeline stage checkpoint -- and false is returned (as for jobs that
    /// already completed).
    bool cancel() const;

    /// Block until the job completes; the result stays owned by the job.
    [[nodiscard]] const JobResult& wait() const&;

    /// wait() on a temporary handle -- `service.submit(...).wait()`.  The
    /// temporary may be the job's only owner, so returning the reference
    /// above would dangle the moment the statement ends; this overload
    /// copies the result out instead.
    [[nodiscard]] JobResult wait() &&;

    /// Wait with a timeout; true when the job completed in time.
    [[nodiscard]] bool wait_for(double seconds) const;

private:
    friend class Service;
    friend struct detail::ServiceCore;
    explicit JobHandle(std::shared_ptr<detail::Job> job) : job_(std::move(job)) {}

    std::shared_ptr<detail::Job> job_;
};

/// Per-job submission knobs.
struct SubmitOptions {
    int priority = 0; ///< higher runs first; FIFO within a level
    std::optional<double> deadline_s; ///< relative deadline from submit time
    std::string label; ///< echoed into results and stats
    /// Backpressure policy when the bounded queue is full: false (default)
    /// blocks the submitting thread until a slot frees up; true never
    /// blocks -- the job completes immediately with StatusCode::Unavailable
    /// (the retryable rejection a network reactor must answer instead of
    /// stalling its event loop).
    bool nowait = false;
    /// Fired exactly once when the job completes (any outcome), from the
    /// completing thread, before drain()/shutdown() can return.  Must not
    /// throw; exceptions are swallowed at the boundary.
    std::function<void(const JobHandle&)> on_complete;
};

/// Parameter axis of a sweep job.
enum class SweepAxis { FabricSides, ChannelCapacity, Speed, Topology };

[[nodiscard]] const std::string& sweep_axis_name(SweepAxis axis);
[[nodiscard]] std::optional<SweepAxis> parse_sweep_axis(const std::string& name);

/// A job body: runs on a worker with the shared pipeline and this job's
/// run control; returns a JobResult and must not throw (the service still
/// catches as a last resort and maps to StatusCode::Internal).
using JobFn = std::function<JobResult(pipeline::Pipeline&, const pipeline::RunControl&)>;

/// Latency percentile summary in seconds, over a bounded window of the
/// most recent completions.
struct LatencySummary {
    std::size_t count = 0;
    double p50_s = 0.0;
    double p90_s = 0.0;
    double p99_s = 0.0;
    double p999_s = 0.0; ///< saturates to max until the ring holds >= 1000
    double max_s = 0.0;
};

/// Cumulative service counters + current queue occupancy.
struct ServiceStats {
    std::size_t submitted = 0;
    std::size_t completed = 0;        ///< all terminal outcomes
    std::size_t succeeded = 0;
    std::size_t failed = 0;           ///< non-OK other than cancel/deadline/reject
    std::size_t cancelled = 0;
    std::size_t deadline_expired = 0;
    std::size_t rejected = 0;         ///< Unavailable: queue full under nowait
    std::size_t queue_depth = 0;      ///< currently queued
    std::size_t running = 0;          ///< currently executing
    std::size_t peak_queue_depth = 0;
    LatencySummary queue_wait;        ///< submit -> dequeue
    LatencySummary service_time;      ///< dequeue -> completion
    pipeline::CacheStats cache;       ///< pipeline cache passthrough

    [[nodiscard]] std::string to_string() const;
};

/// The async boundary.  Construct once, submit many jobs, shut down (or let
/// the destructor do it -- it drains queued work first).
class Service {
public:
    explicit Service(pipeline::PipelineConfig config = {}, ServiceOptions options = {});
    Service(std::shared_ptr<pipeline::Pipeline> pipeline, ServiceOptions options = {});
    ~Service();

    Service(const Service&) = delete;
    Service& operator=(const Service&) = delete;

    /// The wrapped session (e.g. for cache statistics or direct sync use).
    [[nodiscard]] pipeline::Pipeline& pipeline() { return *pipeline_; }

    /// Enqueue one pipeline run.
    [[nodiscard]] JobHandle submit(pipeline::EstimationRequest request,
                                   SubmitOptions options = {});

    /// Enqueue an arbitrary job body.  Sweeps, explorations, optimizations
    /// and calibration fits are such bodies, built from a wire request by
    /// `wire::submit` (service/wire.h).
    [[nodiscard]] JobHandle submit_fn(JobFn fn, SubmitOptions options = {});

    /// Block until every job submitted so far has completed.
    void drain();

    /// Stop accepting new work, run the queue dry, join the workers.
    /// Idempotent; jobs submitted afterwards complete as Cancelled.
    void shutdown();

    [[nodiscard]] ServiceStats stats() const;

private:
    void worker_loop();

    std::shared_ptr<pipeline::Pipeline> pipeline_;
    ServiceOptions options_;
    /// The queue, counters, and condition variables live behind a shared
    /// pointer that every Job also holds: a JobHandle operation (cancel of
    /// a queued job, in particular) can then never race Service destruction
    /// into freed state.
    std::shared_ptr<detail::ServiceCore> core_;
    std::vector<std::thread> workers_;
};

} // namespace leqa::service
