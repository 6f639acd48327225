/// \file session.h
/// \brief One wire session: the per-client NDJSON dispatch shared by the
///        stdio daemon loop and every TCP connection of the reactor.
///
/// A Session owns a connection-local wire-id space: the ids a client picks
/// only need to be unique among *its own* in-flight requests, because the
/// session maps them onto the service's globally unique internal job keys
/// and keeps the id -> JobHandle table that "cancel" reaches into.  Two
/// clients can both be running request id 1 without interference.
///
/// Threading: handle_line() is called from exactly one transport thread
/// (the stdio reader or the reactor), while completions arrive on service
/// worker threads; the in-flight table takes an internal mutex, and the
/// emit callback must itself be thread-safe (the stdio emit locks stdout,
/// the reactor emit locks the completion queue).  Sessions are created via
/// make() because completion callbacks keep the session alive by
/// shared_ptr: a TCP connection can die while its jobs still run, so
/// detach() flips emission to a no-op and cancels the in-flight jobs, and
/// the late completions then touch only this (still-alive) session object.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>

#include "net/framing.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/thread_annotations.h"

namespace leqa::net {

/// Per-session policy knobs.
struct SessionOptions {
    /// Full-queue behavior: true rejects with the retryable Unavailable
    /// code (TCP -- the reactor must never block), false blocks the
    /// submitting thread (stdio -- backpressure propagates up the pipe).
    bool reject_when_full = false;
};

class Session : public std::enable_shared_from_this<Session> {
public:
    /// Thread-safe sink for one serialized response line (no '\n').
    using Emit = std::function<void(std::string line)>;
    /// Thread-safe post-settlement notification (see set_on_settled).
    using Notify = std::function<void()>;

    [[nodiscard]] static std::shared_ptr<Session> make(service::Service& service,
                                                       Emit emit,
                                                       SessionOptions options = {});

    /// Called (from the completing thread) each time a completion leaves
    /// the in-flight table, i.e. each time idle() may have turned true.  A
    /// transport that gates connection teardown on idle() needs this:
    /// completions emit *before* they erase (exactly-once delivery), so an
    /// idle() probe taken between the two reads false with no later event
    /// to re-trigger it -- the notify is that later event.  Cleared by
    /// detach().
    void set_on_settled(Notify notify) LEQA_EXCLUDES(mutex_);

    /// Dispatch one request line (already framed, may be malformed): zero
    /// or more responses go out through emit, now or on completion.  Cancel
    /// and stats are answered inline; every other op is a job submitted
    /// through `wire::submit`.
    void handle_line(const std::string& line) LEQA_EXCLUDES(mutex_);

    /// Answer the one-shot overlong-line event with a ParseError (id 0 --
    /// the line was never parsed, so its id is unknowable by design).
    void handle_overlong() LEQA_EXCLUDES(mutex_);

    /// Drain every framed line \p reader holds through handle_overlong() or
    /// handle_line(): the dispatch loop of both transports.
    void handle_lines(LineReader& reader) LEQA_EXCLUDES(mutex_);

    /// Stop emitting and cancel every in-flight job (client went away).
    /// Idempotent.  Late completions become no-ops.
    void detach() LEQA_EXCLUDES(mutex_);

    /// In-flight request count (jobs submitted, response not yet emitted).
    [[nodiscard]] std::size_t inflight() const LEQA_EXCLUDES(mutex_);
    [[nodiscard]] bool idle() const LEQA_EXCLUDES(mutex_) {
        return inflight() == 0;
    }

private:
    Session(service::Service& service, Emit emit, SessionOptions options);

    void emit(std::string line) LEQA_EXCLUDES(mutex_);
    void track(std::uint64_t id, service::JobHandle handle) LEQA_EXCLUDES(mutex_);
    void complete(std::uint64_t id, const service::JobHandle& handle)
        LEQA_EXCLUDES(mutex_);

    service::Service& service_;
    SessionOptions options_;

    mutable util::Mutex mutex_; ///< guards emit_, on_settled_, jobs_
    /// Cleared by detach().
    Emit emit_ LEQA_GUARDED_BY(mutex_);
    /// Cleared by detach().
    Notify on_settled_ LEQA_GUARDED_BY(mutex_);
    std::unordered_map<std::uint64_t, service::JobHandle> jobs_
        LEQA_GUARDED_BY(mutex_);
};

} // namespace leqa::net
