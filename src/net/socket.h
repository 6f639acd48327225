/// \file socket.h
/// \brief Thin POSIX TCP wrappers: an RAII fd, listener/connect helpers,
///        and a blocking NDJSON client used by the load harness and tests.
///
/// Everything here is deliberately small: the reactor (net/server.h) wants
/// non-blocking fds and raw send/recv; the client side wants a blocking
/// connect + line-oriented request/response.  Failures throw util::Error
/// with the errno text -- no error-code plumbing at this layer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "net/framing.h"

namespace leqa::net {

/// Move-only owner of one file descriptor; closes on destruction.
class Socket {
public:
    Socket() = default;
    explicit Socket(int fd) : fd_(fd) {}
    ~Socket();

    Socket(const Socket&) = delete;
    Socket& operator=(const Socket&) = delete;
    Socket(Socket&& other) noexcept : fd_(other.release()) {}
    Socket& operator=(Socket&& other) noexcept;

    [[nodiscard]] bool valid() const { return fd_ >= 0; }
    [[nodiscard]] int fd() const { return fd_; }
    /// Give up ownership without closing.
    int release();
    void close();

private:
    int fd_ = -1;
};

/// Bind + listen (backlog 128) a non-blocking TCP socket on host:port (port
/// 0 picks an ephemeral port; read it back with local_port).  SO_REUSEADDR
/// is set so quick restarts do not trip TIME_WAIT.
[[nodiscard]] Socket listen_tcp(const std::string& host, std::uint16_t port);

/// The locally bound port of a listening (or connected) socket.
[[nodiscard]] std::uint16_t local_port(const Socket& socket);

/// Blocking client connect; TCP_NODELAY is set (one request per line --
/// Nagle would serialize the request/response rhythm).
[[nodiscard]] Socket connect_tcp(const std::string& host, std::uint16_t port);

/// Flip O_NONBLOCK on an accepted fd.
void set_nonblocking(int fd);

/// Blocking write of the whole buffer (client side); throws on error/EOF.
void send_all(const Socket& socket, std::string_view data);

/// Blocking NDJSON client: send request lines, read response lines.  Used
/// by the load harness's worker threads and the loopback tests.
class Client {
public:
    Client(const std::string& host, std::uint16_t port,
           std::size_t max_line_bytes = 1 << 20);

    /// Send one request line ('\n' appended).
    void send_line(const std::string& line);
    /// Send raw bytes verbatim (pipelined bursts, hostile framing tests).
    void send_raw(std::string_view data);

    /// Next response line; blocks. nullopt on orderly EOF.
    [[nodiscard]] std::optional<std::string> read_line();

    /// Half-close the write side (signals the server this client is done).
    void finish_writes();
    void close();

    [[nodiscard]] int fd() const { return socket_.fd(); }

private:
    Socket socket_;
    LineReader reader_;
    bool eof_ = false;
};

} // namespace leqa::net
