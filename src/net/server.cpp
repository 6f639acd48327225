#include "net/server.h"

#include <algorithm>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/error.h"

namespace leqa::net {

namespace {

/// One recv() chunk.  Lines larger than this are assembled across chunks
/// by the LineReader, so the value only bounds per-call work, not line
/// length.
constexpr std::size_t kReadChunk = 65536;

std::pair<Socket, Socket> make_wake_pipe() {
    int fds[2];
    if (::pipe(fds) != 0) {
        throw util::Error("pipe: " + util::errno_message(errno));
    }
    set_nonblocking(fds[0]);
    set_nonblocking(fds[1]);
    return {Socket(fds[0]), Socket(fds[1])};
}

} // namespace

Server::Server(service::Service& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {
    LEQA_REQUIRE(options_.max_connections >= 1, "server needs at least one connection");
    listener_ = listen_tcp(options_.host, options_.port);
    port_ = local_port(listener_);
    auto [rd, wr] = make_wake_pipe();
    wake_rd_ = std::move(rd);
    wake_wr_ = std::move(wr);
}

Server::~Server() {
    // run() normally exits with no connections left; if it was abandoned
    // early (an exception, a never-started run), detach the survivors so
    // their late completion callbacks cannot touch this dead Server.
    for (auto& [fd, conn] : connections_) conn->session->detach();
}

void Server::stop() {
    stop_requested_.store(true);
    wake();
}

void Server::wake() {
    const char byte = 1;
    // EAGAIN means the pipe already holds a wakeup; that is all we need.
    [[maybe_unused]] const ssize_t rc = ::write(wake_wr_.fd(), &byte, 1);
}

void Server::drain_wake_pipe() {
    char buffer[256];
    while (::read(wake_rd_.fd(), buffer, sizeof(buffer)) > 0) {}
}

void Server::apply_completions() {
    std::vector<std::pair<std::uint64_t, std::string>> batch;
    {
        const util::MutexLock lock(completions_mutex_);
        batch.swap(completions_);
    }
    for (auto& [gen, line] : batch) {
        const auto it = by_gen_.find(gen);
        if (it == by_gen_.end()) continue; // connection died; drop the line
        it->second->out += line;
        it->second->out += '\n';
    }
}

void Server::begin_drain() {
    if (draining_) return;
    draining_ = true;
    listener_.close(); // stop accepting; pending connects get RST/refused
}

bool Server::can_close(const Connection& conn) {
    if (conn.out_off < conn.out.size()) return false;
    if (!conn.session->idle()) return false;
    // idle() means every completion was already pushed (Session::complete
    // emits before it erases); the push may still sit in the queue, so a
    // connection is only closable when no queued line names its gen.
    const util::MutexLock lock(completions_mutex_);
    return std::none_of(completions_.begin(), completions_.end(),
                        [&](const auto& entry) { return entry.first == conn.gen; });
}

void Server::accept_ready() {
    for (;;) {
        if (connections_.size() >= options_.max_connections) return;
        const int fd = ::accept(listener_.fd(), nullptr, nullptr);
        if (fd < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR || errno == ECONNABORTED) continue;
            return; // transient resource failure (EMFILE, ...); retry later
        }
        Socket socket(fd);
        set_nonblocking(fd);
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
        const std::uint64_t gen = ++next_gen_;
        auto conn = std::make_unique<Connection>(std::move(socket), gen,
                                                 options_.max_line_bytes);
        SessionOptions session_options;
        session_options.reject_when_full = true; // the reactor never blocks
        conn->session = Session::make(
            service_,
            [this, gen](std::string line) {
                {
                    const util::MutexLock lock(completions_mutex_);
                    completions_.emplace_back(gen, std::move(line));
                }
                wake();
            },
            session_options);
        // Re-run the close-out sweep whenever a completion leaves the
        // session's in-flight table: the emit above fires *before* that
        // table shrinks, so the wake it triggers can find idle() still
        // false -- without this second nudge the reactor would never
        // re-evaluate and a drained connection would hang open.
        conn->session->set_on_settled([this] { wake(); });
        by_gen_[gen] = conn.get();
        connections_[fd] = std::move(conn);
        accepted_.fetch_add(1);
    }
}

void Server::read_ready(Connection& conn) {
    char buffer[kReadChunk];
    for (;;) {
        const ssize_t got = ::recv(conn.socket.fd(), buffer, sizeof(buffer), 0);
        if (got < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) break;
            if (errno == EINTR) continue;
            doomed_.push_back(conn.socket.fd()); // reset mid-stream
            return;
        }
        if (got == 0) {
            // Orderly EOF: like stdio EOF, the client is done sending but
            // still gets every accepted response before we close.
            conn.read_closed = true;
            conn.reader.finish();
            break;
        }
        conn.reader.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
        // Dispatch as we go so a pipelined burst cannot defer all parsing
        // to one giant post-read pass.
        conn.session->handle_lines(conn.reader);
    }
    conn.session->handle_lines(conn.reader);
}

void Server::flush_writes(Connection& conn) {
    while (conn.out_off < conn.out.size()) {
        const ssize_t sent =
            ::send(conn.socket.fd(), conn.out.data() + conn.out_off,
                   conn.out.size() - conn.out_off, MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EAGAIN || errno == EWOULDBLOCK) return;
            if (errno == EINTR) continue;
            doomed_.push_back(conn.socket.fd()); // peer gone; EPIPE/ECONNRESET
            return;
        }
        conn.out_off += static_cast<std::size_t>(sent);
    }
    conn.out.clear();
    conn.out_off = 0;
}

void Server::destroy_connection(int fd) {
    const auto it = connections_.find(fd);
    if (it == connections_.end()) return;
    // Detach first: emission goes dark and in-flight jobs are cancelled
    // (queued ones immediately, running ones at their next checkpoint), so
    // an abandoned connection cannot leak queue slots.
    it->second->session->detach();
    by_gen_.erase(it->second->gen);
    connections_.erase(it); // closes the socket
}

void Server::run() {
    std::vector<pollfd> fds;
    std::vector<Connection*> polled;
    for (;;) {
        if (stop_requested_.load()) begin_drain();
        if (draining_ && connections_.empty()) return;

        fds.clear();
        polled.clear();
        fds.push_back(pollfd{wake_rd_.fd(), POLLIN, 0});
        const bool watch_shutdown = options_.shutdown_fd >= 0 && !draining_;
        if (watch_shutdown) {
            fds.push_back(pollfd{options_.shutdown_fd, POLLIN, 0});
        }
        const bool watch_listener =
            !draining_ && connections_.size() < options_.max_connections;
        if (watch_listener) {
            fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
        }
        const std::size_t first_conn = fds.size();
        for (auto& [fd, conn] : connections_) {
            short events = 0;
            if (!draining_ && !conn->read_closed) events |= POLLIN;
            if (conn->out_off < conn->out.size()) events |= POLLOUT;
            fds.push_back(pollfd{fd, events, 0});
            polled.push_back(conn.get());
        }

        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR) continue; // a signal; loop re-checks state
            throw util::Error("poll: " + util::errno_message(errno));
        }

        std::size_t index = 0;
        if (fds[index].revents & POLLIN) drain_wake_pipe();
        ++index;
        if (watch_shutdown) {
            if (fds[index].revents & POLLIN) begin_drain();
            ++index;
        }
        if (watch_listener) {
            if (fds[index].revents & POLLIN) accept_ready();
            ++index;
        }

        doomed_.clear();
        for (std::size_t c = 0; c < polled.size(); ++c) {
            Connection& conn = *polled[c];
            const short revents = fds[first_conn + c].revents;
            if (revents & (POLLIN | POLLHUP | POLLERR)) {
                if (!draining_ && !conn.read_closed) read_ready(conn);
                else if (revents & POLLERR) doomed_.push_back(conn.socket.fd());
            }
        }
        // Sessions may have completed inline work (stats, cancels, nowait
        // rejections) during the reads; fold those lines in before writing
        // so single-iteration request/response round trips stay possible.
        apply_completions();
        for (Connection* conn : polled) {
            if (std::find(doomed_.begin(), doomed_.end(), conn->socket.fd()) !=
                doomed_.end()) {
                continue;
            }
            if (conn->out_off < conn->out.size()) flush_writes(*conn);
        }
        for (const int fd : doomed_) destroy_connection(fd);
        doomed_.clear();

        // Close-out sweep: a connection departs once the peer stopped
        // sending (or we are draining), every job answered, and every byte
        // flushed -- exactly-once delivery, then the socket goes away.
        std::vector<int> closable;
        for (auto& [fd, conn] : connections_) {
            if ((conn->read_closed || draining_) && can_close(*conn)) {
                closable.push_back(fd);
            }
        }
        for (const int fd : closable) destroy_connection(fd);
    }
}

} // namespace leqa::net
