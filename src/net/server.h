/// \file server.h
/// \brief Single-reactor TCP server: N concurrent NDJSON connections
///        multiplexed onto one service::Service job queue via poll(2).
///
/// Shape of the loop (one thread, never blocks on work):
///
///   - the listener, a wake pipe, an optional external shutdown fd, and
///     every connection sit in one poll set;
///   - reads are non-blocking and framed by net::LineReader under the hard
///     per-line cap (an overlong line answers ParseError and resyncs);
///   - each connection owns a net::Session, so wire ids are
///     connection-local and "cancel"/"stats" behave exactly like stdio;
///   - job submission uses the service's nowait mode: when the bounded
///     queue is full the request completes immediately with the retryable
///     `Unavailable` code instead of blocking the reactor;
///   - completions arrive on worker threads, are queued under a mutex, and
///     the wake pipe gets one byte -- the reactor drains the queue into
///     per-connection write buffers (partial writes resume on POLLOUT);
///   - a client that disconnects mid-request gets its in-flight jobs
///     cancelled (cooperatively -- running jobs stop at the next pipeline
///     checkpoint) and late completions are dropped by generation id, so a
///     dead connection can neither leak jobs nor crash the loop;
///   - stop() (or a readable shutdown fd, e.g. a SIGTERM self-pipe) closes
///     the listener, stops reading, lets every in-flight job finish,
///     flushes every response, then run() returns.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "net/framing.h"
#include "net/session.h"
#include "net/socket.h"
#include "service/service.h"
#include "util/thread_annotations.h"

namespace leqa::net {

struct ServerOptions {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0; ///< 0 = ephemeral; read back via Server::port()
    std::size_t max_connections = 1024;
    std::size_t max_line_bytes = 1 << 20; ///< per-request NDJSON line cap
    /// Optional *non-blocking* fd the reactor also polls; readable means
    /// "begin graceful shutdown" (the CLI points this at its signal
    /// self-pipe so SIGTERM/SIGINT drain instead of kill).
    int shutdown_fd = -1;
};

class Server {
public:
    /// Binds and listens immediately (throws util::Error on failure); the
    /// service must outlive the server.
    Server(service::Service& service, ServerOptions options = {});
    ~Server();

    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// The bound port (the ephemeral one when options.port was 0).
    [[nodiscard]] std::uint16_t port() const { return port_; }

    /// The reactor loop.  Returns only after a stop request has been seen
    /// AND every accepted request has been answered and flushed (or its
    /// connection died).  Call from exactly one thread.
    void run();

    /// Request graceful shutdown from any thread.  Safe to call more than
    /// once and before run().
    void stop();

    /// Lifetime connection count (observability; reactor-thread accurate
    /// after run() returns).
    [[nodiscard]] std::uint64_t connections_accepted() const {
        return accepted_.load();
    }

private:
    struct Connection {
        Socket socket;
        std::uint64_t gen = 0; ///< unique per accepted connection, never reused
        LineReader reader;
        std::shared_ptr<Session> session;
        std::string out;           ///< pending response bytes
        std::size_t out_off = 0;   ///< already-written prefix of out
        bool read_closed = false;  ///< peer EOF: no more requests, still drains

        Connection(Socket s, std::uint64_t g, std::size_t max_line)
            : socket(std::move(s)), gen(g), reader(max_line) {}
    };

    void wake();
    void drain_wake_pipe();
    void apply_completions() LEQA_EXCLUDES(completions_mutex_);
    void accept_ready();
    void read_ready(Connection& conn);
    void flush_writes(Connection& conn);
    void destroy_connection(int fd);
    void begin_drain();
    [[nodiscard]] bool can_close(const Connection& conn)
        LEQA_EXCLUDES(completions_mutex_);

    service::Service& service_;
    ServerOptions options_;
    Socket listener_;
    std::uint16_t port_ = 0;
    Socket wake_rd_, wake_wr_;

    std::unordered_map<int, std::unique_ptr<Connection>> connections_; ///< by fd
    std::unordered_map<std::uint64_t, Connection*> by_gen_;
    std::uint64_t next_gen_ = 0;
    std::atomic<std::uint64_t> accepted_{0};

    /// Completed-response lines from worker threads: (connection gen, line).
    util::Mutex completions_mutex_;
    std::vector<std::pair<std::uint64_t, std::string>> completions_
        LEQA_GUARDED_BY(completions_mutex_);

    std::atomic<bool> stop_requested_{false};
    bool draining_ = false; ///< reactor-thread state
    std::vector<int> doomed_; ///< fds to destroy after the poll sweep
};

} // namespace leqa::net
