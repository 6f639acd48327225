#include "service/service.h"

#include <algorithm>
#include <atomic>
#include <queue>

#include "mathx/stats.h"
#include "util/error.h"
#include "util/strings.h"
#include "util/thread_annotations.h"

namespace leqa::service {

namespace {

/// Bounded window for the latency percentile reservoirs.  16384 keeps p999
/// meaningful (nearest-rank needs >= 1000 samples before p999 separates
/// from max; at 16384 the p999 rank sits 17 samples below the top) while a
/// stats() snapshot still copies only ~256 KiB.
constexpr std::size_t kLatencyWindow = 16384;

std::chrono::steady_clock::duration seconds_duration(double seconds) {
    // duration_cast to the ns-backed steady duration is UB past ~292 years
    // (LLONG_MAX ns); a deadline that far out means "effectively none", so
    // clamp instead of wrapping negative and instantly expiring the job.
    constexpr double kMaxSeconds = 3.0e9; // ~95 years
    return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
        std::chrono::duration<double>(std::min(seconds, kMaxSeconds)));
}

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
    return std::chrono::duration<double>(to - from).count();
}

LatencySummary summarize(std::vector<double> samples) {
    // Nearest-rank percentiles; the exact rank formula (and its small-window
    // saturation: p99 == max until the ring holds >= 100 samples) is pinned
    // in mathx::nearest_rank_percentile and its unit tests.
    LatencySummary summary;
    summary.count = samples.size();
    if (samples.empty()) return summary;
    summary.max_s = *std::max_element(samples.begin(), samples.end());
    summary.p50_s = mathx::nearest_rank_percentile_inplace(samples, 0.50);
    summary.p90_s = mathx::nearest_rank_percentile_inplace(samples, 0.90);
    summary.p99_s = mathx::nearest_rank_percentile_inplace(samples, 0.99);
    summary.p999_s = mathx::nearest_rank_percentile_inplace(samples, 0.999);
    return summary;
}

} // namespace

namespace detail {

/// One submitted unit of work.  Completion state (result + wait cv) lives
/// here so handles stay usable after the Service drains away.
class Job {
public:
    std::uint64_t id = 0;
    std::string label;
    JobFn fn;
    pipeline::RunControl control;
    std::function<void(const JobHandle&)> on_complete;
    std::chrono::steady_clock::time_point submitted_at;
    /// For cancel-of-queued bookkeeping.  Shared, not raw: a handle's
    /// cancel() may race Service destruction, and the core must survive it.
    std::shared_ptr<ServiceCore> core;

    std::atomic<JobState> state{JobState::Queued};
    mutable util::Mutex wait_mutex;
    mutable util::CondVar wait_cv;
    /// Set exactly once; waiters re-check under wait_mutex.
    std::optional<JobResult> result LEQA_GUARDED_BY(wait_mutex);
};

/// The scheduler state shared between the Service and every Job: queue,
/// counters, and the condition variables.  Kept alive by shared_ptr from
/// both sides so JobHandle operations never touch freed state.
struct ServiceCore {
    mutable util::Mutex mutex; ///< guards queue, counters, stopping
    util::CondVar work_available;
    util::CondVar slot_available;
    util::CondVar drained;

    struct QueueEntry {
        int priority = 0;
        std::uint64_t seq = 0;
        std::shared_ptr<Job> job;
        /// Max-heap on priority; FIFO (lower seq first) within a level.
        [[nodiscard]] bool operator<(const QueueEntry& other) const {
            if (priority != other.priority) return priority < other.priority;
            return seq > other.seq;
        }
    };
    std::priority_queue<QueueEntry> queue LEQA_GUARDED_BY(mutex);
    std::uint64_t next_seq LEQA_GUARDED_BY(mutex) = 0;
    /// Workers parked on work_available.
    std::size_t idle_workers LEQA_GUARDED_BY(mutex) = 0;
    bool stopping LEQA_GUARDED_BY(mutex) = false;
    bool joined LEQA_GUARDED_BY(mutex) = false;

    ServiceStats stats LEQA_GUARDED_BY(mutex);
    /// Jobs whose on_complete has been delivered; gates drain()/shutdown()
    /// (stats.completed counts results, which land slightly earlier).
    std::size_t finished LEQA_GUARDED_BY(mutex) = 0;
    /// Bounded rings (kLatencyWindow).
    std::vector<double> queue_wait_samples LEQA_GUARDED_BY(mutex);
    std::vector<double> service_time_samples LEQA_GUARDED_BY(mutex);
    std::size_t sample_cursor LEQA_GUARDED_BY(mutex) = 0;

    /// Deliver a result, fire on_complete, and account the completion.
    void finish_job(const std::shared_ptr<Job>& job, JobResult result,
                    double queue_wait_s, double run_s)
        LEQA_EXCLUDES(mutex);
    /// Cancel-claim a still-queued job (JobHandle::cancel's slow path).
    bool cancel_queued(const std::shared_ptr<Job>& job) LEQA_EXCLUDES(mutex);
};

} // namespace detail

// ------------------------------------------------------------- JobHandle --

const std::string& JobHandle::label() const {
    LEQA_REQUIRE(job_ != nullptr, "invalid job handle");
    return job_->label;
}

JobState JobHandle::poll() const {
    LEQA_REQUIRE(job_ != nullptr, "invalid job handle");
    return job_->state.load();
}

bool JobHandle::cancel() const {
    LEQA_REQUIRE(job_ != nullptr, "invalid job handle");
    job_->control.cancel.store(true);
    if (job_->state.load() != JobState::Queued) return false; // running/terminal
    return job_->core->cancel_queued(job_);
}

const JobResult& JobHandle::wait() const& {
    LEQA_REQUIRE(job_ != nullptr, "invalid job handle");
    util::MutexLock lock(job_->wait_mutex);
    while (!job_->result.has_value()) job_->wait_cv.wait(job_->wait_mutex);
    // The result is write-once: the reference stays valid (and immutable)
    // after the lock drops, for as long as the job itself lives.
    return *job_->result;
}

JobResult JobHandle::wait() && {
    const JobHandle& self = *this;
    return self.wait(); // copy out before the temporary (and maybe the job) dies
}

// ------------------------------------------------------------ SweepAxis --

const std::string& sweep_axis_name(SweepAxis axis) {
    static const std::string names[] = {"fabric_sides", "nc", "v", "topology"};
    return names[static_cast<std::size_t>(axis)];
}

std::optional<SweepAxis> parse_sweep_axis(const std::string& name) {
    for (const auto axis : {SweepAxis::FabricSides, SweepAxis::ChannelCapacity,
                            SweepAxis::Speed, SweepAxis::Topology}) {
        if (sweep_axis_name(axis) == name) return axis;
    }
    return std::nullopt;
}

// --------------------------------------------------------- ServiceStats --

std::string ServiceStats::to_string() const {
    std::string text = "jobs " + std::to_string(submitted) + " submitted / " +
                       std::to_string(completed) + " completed (" +
                       std::to_string(succeeded) + " ok, " + std::to_string(failed) +
                       " failed, " + std::to_string(cancelled) + " cancelled, " +
                       std::to_string(deadline_expired) + " deadline, " +
                       std::to_string(rejected) + " rejected), queue " +
                       std::to_string(queue_depth) + " (peak " +
                       std::to_string(peak_queue_depth) + "), running " +
                       std::to_string(running);
    text += "; wait p50/p99 " + util::format_double(queue_wait.p50_s * 1e3, 3) + "/" +
            util::format_double(queue_wait.p99_s * 1e3, 3) + " ms, service p50/p99 " +
            util::format_double(service_time.p50_s * 1e3, 3) + "/" +
            util::format_double(service_time.p99_s * 1e3, 3) + " ms";
    text += "; cache: " + cache.to_string();
    return text;
}

// -------------------------------------------------------------- Service --

Service::Service(pipeline::PipelineConfig config, ServiceOptions options)
    : Service(std::make_shared<pipeline::Pipeline>(std::move(config)), options) {}

Service::Service(std::shared_ptr<pipeline::Pipeline> pipeline, ServiceOptions options)
    : pipeline_(std::move(pipeline)), options_(options),
      core_(std::make_shared<detail::ServiceCore>()) {
    LEQA_REQUIRE(pipeline_ != nullptr, "service requires a pipeline");
    LEQA_REQUIRE(options_.max_queue >= 1, "service queue must hold at least one job");
    std::size_t threads = options_.threads;
    if (threads == 0) {
        threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
    }
    options_.threads = threads;
    workers_.reserve(threads);
    try {
        for (std::size_t t = 0; t < threads; ++t) {
            workers_.emplace_back([this] { worker_loop(); });
        }
    } catch (...) {
        // Joinable threads must not be destroyed (std::terminate).
        shutdown();
        throw;
    }
}

Service::~Service() { shutdown(); }

JobHandle Service::submit_fn(JobFn fn, SubmitOptions options) {
    LEQA_REQUIRE(fn != nullptr, "submit_fn requires a job body");
    auto job = std::make_shared<detail::Job>();
    job->label = std::move(options.label);
    job->fn = std::move(fn);
    job->on_complete = std::move(options.on_complete);
    job->submitted_at = std::chrono::steady_clock::now();
    if (options.deadline_s.has_value()) {
        job->control.deadline = job->submitted_at + seconds_duration(*options.deadline_s);
    }
    job->core = core_;

    bool rejected = false;
    bool queue_full = false;
    bool wake_worker = false;
    {
        const util::MutexLock lock(core_->mutex);
        job->id = ++core_->next_seq;
        if (options.nowait) {
            // Backpressure without blocking: a full queue is an immediate,
            // retryable rejection (the caller is an event loop that must
            // not stall here).
            queue_full = !core_->stopping &&
                         core_->stats.queue_depth >= options_.max_queue;
        } else {
            // Backpressure: block the submitter until the queue has room.
            while (!core_->stopping &&
                   core_->stats.queue_depth >= options_.max_queue) {
                core_->slot_available.wait(core_->mutex);
            }
        }
        ++core_->stats.submitted;
        if (core_->stopping) {
            rejected = true;
        } else if (queue_full) {
            // fall through: completed below, outside the lock
        } else {
            core_->queue.push(
                detail::ServiceCore::QueueEntry{options.priority, job->id, job});
            ++core_->stats.queue_depth;
            core_->stats.peak_queue_depth =
                std::max(core_->stats.peak_queue_depth, core_->stats.queue_depth);
            // Busy workers re-check the queue before parking, so a wakeup
            // is only needed when someone is actually parked.
            wake_worker = core_->idle_workers > 0;
        }
    }
    if (rejected) {
        // The job was never queued; complete it here, on the boundary.  The
        // state is stored terminal *before* finish_job so a racing
        // JobHandle::cancel can never mistake it for a queued job.
        job->state.store(JobState::Cancelled);
        core_->finish_job(job,
                          util::Status(util::StatusCode::Cancelled,
                                       "service is shut down", "queue"),
                          0.0, 0.0);
        return JobHandle(job);
    }
    if (queue_full) {
        // Same cancel-race guard as above: leave Queued before completing.
        job->state.store(JobState::Running);
        core_->finish_job(job,
                          util::Status(util::StatusCode::Unavailable,
                                       "service queue is full (" +
                                           std::to_string(options_.max_queue) +
                                           " jobs); retry later",
                                       "queue"),
                          0.0, 0.0);
        return JobHandle(job);
    }
    if (wake_worker) core_->work_available.notify_one();
    return JobHandle(job);
}

JobHandle Service::submit(pipeline::EstimationRequest request, SubmitOptions options) {
    if (request.label.empty()) {
        request.label =
            options.label.empty() ? request.source.display_name() : options.label;
    }
    if (options.label.empty()) options.label = request.label;
    return submit_fn(
        [request = std::move(request)](pipeline::Pipeline& pipe,
                                       const pipeline::RunControl& control) -> JobResult {
            util::Result<pipeline::EstimationResult> run = pipe.run_result(request, &control);
            if (!run.ok()) return run.status();
            return JobOutput{std::move(run).value()};
        },
        std::move(options));
}

void Service::worker_loop() {
    detail::ServiceCore& core = *core_;
    for (;;) {
        std::shared_ptr<detail::Job> job;
        {
            const util::MutexLock lock(core.mutex);
            ++core.idle_workers;
            while (!core.stopping && core.queue.empty()) {
                core.work_available.wait(core.mutex);
            }
            --core.idle_workers;
            if (core.queue.empty()) return; // stopping and drained dry
            job = core.queue.top().job;
            core.queue.pop();
            if (job->state.load() != JobState::Queued) {
                continue; // cancelled while queued; completed by the canceller
            }
            job->state.store(JobState::Running);
            --core.stats.queue_depth;
            ++core.stats.running;
        }
        core.slot_available.notify_one();

        const auto dequeued_at = std::chrono::steady_clock::now();
        const double queue_wait_s = seconds_between(job->submitted_at, dequeued_at);
        std::optional<JobResult> result;
        if (job->control.deadline.has_value() && dequeued_at > *job->control.deadline) {
            // Expired while queued: never execute it.
            result.emplace(util::Status(util::StatusCode::DeadlineExceeded,
                                        "deadline exceeded while queued", "queue"));
        } else if (job->control.cancel.load()) {
            // cancel() raced the claim: honor it before doing any work.
            result.emplace(util::Status(util::StatusCode::Cancelled,
                                        "cancelled before start", "queue"));
        } else {
            try {
                result.emplace(job->fn(*pipeline_, job->control));
            } catch (...) {
                // Job bodies return Results; anything thrown is a bug we
                // still refuse to let across the boundary.
                result.emplace(
                    util::status_from_exception(std::current_exception(), "job"));
            }
        }
        const double run_s = seconds_between(dequeued_at, std::chrono::steady_clock::now());
        {
            const util::MutexLock lock(core.mutex);
            --core.stats.running;
        }
        core.finish_job(job, std::move(*result), queue_wait_s, run_s);
    }
}

void detail::ServiceCore::finish_job(const std::shared_ptr<detail::Job>& job,
                                     JobResult result, double queue_wait_s,
                                     double run_s) {
    const bool ok = result.ok();
    const util::StatusCode code = result.status().code();
    // Account first, so a waiter that wakes on the result already observes
    // this completion in stats().
    {
        const util::MutexLock lock(mutex);
        ++stats.completed;
        if (ok) {
            ++stats.succeeded;
        } else if (code == util::StatusCode::Cancelled) {
            ++stats.cancelled;
        } else if (code == util::StatusCode::DeadlineExceeded) {
            ++stats.deadline_expired;
        } else if (code == util::StatusCode::Unavailable) {
            ++stats.rejected;
        } else {
            ++stats.failed;
        }
        // Bounded reservoirs: overwrite the oldest sample pairwise.
        if (queue_wait_samples.size() < kLatencyWindow) {
            queue_wait_samples.push_back(queue_wait_s);
            service_time_samples.push_back(run_s);
        } else {
            queue_wait_samples[sample_cursor] = queue_wait_s;
            service_time_samples[sample_cursor] = run_s;
            sample_cursor = (sample_cursor + 1) % kLatencyWindow;
        }
    }
    {
        const util::MutexLock lock(job->wait_mutex);
        job->result.emplace(std::move(result));
        job->state.store(code == util::StatusCode::Cancelled ? JobState::Cancelled
                                                             : JobState::Done);
    }
    job->wait_cv.notify_all();
    if (job->on_complete) {
        try {
            job->on_complete(JobHandle(job));
        } catch (...) {
            // The boundary holds for callbacks too.
        }
    }
    // Only now may drain()/shutdown() move past this job: its callback has
    // been delivered.
    {
        const util::MutexLock lock(mutex);
        ++finished;
        drained.notify_all();
    }
}

bool detail::ServiceCore::cancel_queued(const std::shared_ptr<detail::Job>& job) {
    {
        const util::MutexLock lock(mutex);
        if (job->state.load() != JobState::Queued) return false; // a worker won
        job->state.store(JobState::Cancelled);
        --stats.queue_depth;
        // The queue entry stays (workers skip non-Queued jobs on pop), which
        // would let a submit-then-cancel loop grow the heap past max_queue
        // while every worker is pinned: compact once tombstones dominate.
        const std::size_t tombstones = queue.size() - stats.queue_depth;
        if (tombstones > 64 && tombstones > stats.queue_depth) {
            std::priority_queue<QueueEntry> live;
            while (!queue.empty()) {
                if (queue.top().job->state.load() == JobState::Queued) {
                    live.push(queue.top());
                }
                queue.pop();
            }
            queue.swap(live);
        }
    }
    slot_available.notify_one();
    const double waited_s =
        seconds_between(job->submitted_at, std::chrono::steady_clock::now());
    finish_job(job,
               util::Status(util::StatusCode::Cancelled, "cancelled while queued",
                            "queue"),
               waited_s, 0.0);
    return true;
}

void Service::drain() {
    const util::MutexLock lock(core_->mutex);
    while (core_->finished != core_->stats.submitted) {
        core_->drained.wait(core_->mutex);
    }
}

void Service::shutdown() {
    bool join_now = false;
    {
        const util::MutexLock lock(core_->mutex);
        core_->stopping = true;
        if (!core_->joined) {
            core_->joined = true;
            join_now = true;
        }
    }
    core_->work_available.notify_all();
    core_->slot_available.notify_all();
    if (join_now) {
        for (std::thread& worker : workers_) worker.join();
    }
}

ServiceStats Service::stats() const {
    ServiceStats out;
    std::vector<double> queue_wait;
    std::vector<double> service_time;
    {
        const util::MutexLock lock(core_->mutex);
        out = core_->stats;
        queue_wait = core_->queue_wait_samples;
        service_time = core_->service_time_samples;
    }
    out.queue_wait = summarize(std::move(queue_wait));
    out.service_time = summarize(std::move(service_time));
    out.cache = pipeline_->cache_stats();
    return out;
}

} // namespace leqa::service
