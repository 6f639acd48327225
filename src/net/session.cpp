#include "net/session.h"

#include <utility>

#include "util/strings.h"

namespace leqa::net {

namespace wire = service::wire;

std::shared_ptr<Session> Session::make(service::Service& service, Emit emit,
                                       SessionOptions options) {
    return std::shared_ptr<Session>(
        new Session(service, std::move(emit), options));
}

Session::Session(service::Service& service, Emit emit, SessionOptions options)
    : service_(service), options_(options), emit_(std::move(emit)) {}

void Session::set_on_settled(Notify notify) {
    const util::MutexLock lock(mutex_);
    on_settled_ = std::move(notify);
}

void Session::emit(std::string line) {
    Emit sink;
    {
        const util::MutexLock lock(mutex_);
        sink = emit_; // copy out: never hold our mutex inside the transport
    }
    if (sink) sink(std::move(line));
}

void Session::track(std::uint64_t id, service::JobHandle handle) {
    const util::MutexLock lock(mutex_);
    // The job may have completed (and fired its erase) before this insert
    // ran; only track handles that are still in flight.  A non-terminal
    // state here guarantees the completion erase is still to come.
    const service::JobState state = handle.poll();
    if (state != service::JobState::Done && state != service::JobState::Cancelled) {
        jobs_[id] = std::move(handle);
    }
}

void Session::complete(std::uint64_t id, const service::JobHandle& handle) {
    // Serialize on the worker thread -- keeps JSON formatting off the
    // transport thread (the reactor only ever copies bytes).  Emit BEFORE
    // erasing: the reactor closes a connection once its session is idle,
    // so "idle" must imply "every response already reached the transport
    // (or its queue)" -- erasing first would open a lost-response window.
    emit(wire::serialize_result(id, handle.wait()));
    Notify settled;
    {
        const util::MutexLock lock(mutex_);
        jobs_.erase(id);
        settled = on_settled_;
    }
    // The erase may have made idle() true; a transport waiting on that must
    // hear about it *after* the flip (an idle() probe between the emit above
    // and the erase reads false, and without this nudge nothing would ever
    // re-run it -- the reactor would sleep forever holding a finished,
    // flushed, closable connection).
    if (settled) settled();
}

void Session::detach() {
    std::unordered_map<std::uint64_t, service::JobHandle> orphans;
    {
        const util::MutexLock lock(mutex_);
        emit_ = nullptr;
        on_settled_ = nullptr;
        orphans.swap(jobs_);
    }
    // Cancel outside the lock: a queued job cancels synchronously, which
    // fires complete() -> emit() on this thread.
    for (auto& [id, handle] : orphans) (void)handle.cancel();
}

std::size_t Session::inflight() const {
    const util::MutexLock lock(mutex_);
    return jobs_.size();
}

void Session::handle_overlong() {
    emit(wire::serialize_error(
        0, util::Status(util::StatusCode::ParseError,
                        "request line exceeds the server line cap; bytes up to "
                        "the next newline were discarded",
                        "wire")));
}

void Session::handle_lines(LineReader& reader) {
    while (std::optional<WireLine> line = reader.next()) {
        if (line->overlong) {
            handle_overlong();
        } else {
            handle_line(line->text);
        }
    }
}

void Session::handle_line(const std::string& line) {
    if (util::trim(line).empty()) return;
    const util::Result<wire::WireRequest> parsed = wire::parse_request(line);
    if (!parsed.ok()) {
        // Best-effort correlation -- but never duplicate an in-flight id:
        // if the recovered id already names a pending job, answer as
        // unidentifiable (id 0) so that job's eventual response stays the
        // only line with its id.
        std::uint64_t recovered = wire::extract_id(line);
        if (recovered != 0) {
            const util::MutexLock lock(mutex_);
            if (jobs_.count(recovered) != 0) recovered = 0;
        }
        emit(wire::serialize_error(recovered, parsed.status()));
        return;
    }
    const wire::WireRequest& request = parsed.value();
    const std::uint64_t id = request.id;
    {
        // Ids must be unique among this session's in-flight requests for
        // every op: a reused job id would make the older job uncancellable
        // and let its completion erase the newer entry, and even an inline
        // op reusing one would put two responses with the same id on the
        // wire.
        bool duplicate = false;
        {
            const util::MutexLock lock(mutex_);
            duplicate = jobs_.count(id) != 0;
        }
        if (duplicate) {
            emit(wire::serialize_error(
                id, util::Status(util::StatusCode::InvalidArgument,
                                 "request id " + std::to_string(id) +
                                     " is already in flight",
                                 "wire")));
            return;
        }
    }

    // Cancel and stats are answered inline; every other op is a job.
    if (request.op == wire::WireRequest::Op::Stats) {
        emit(wire::serialize_stats(id, service_.stats()));
        return;
    }
    if (request.op == wire::WireRequest::Op::Cancel) {
        service::JobHandle target;
        {
            const util::MutexLock lock(mutex_);
            const auto it = jobs_.find(request.target);
            if (it != jobs_.end()) target = it->second;
        }
        if (!target.valid()) {
            emit(wire::serialize_error(
                id, util::Status(util::StatusCode::NotFound,
                                 "no job with id " + std::to_string(request.target),
                                 "queue")));
        } else {
            emit(wire::serialize_cancel_ack(id, request.target, target.cancel()));
        }
        return;
    }

    track(id, wire::submit(service_, request, options_.reject_when_full,
                           [self = shared_from_this(), id](const service::JobHandle& handle) {
                               self->complete(id, handle);
                           }));
}

} // namespace leqa::net
