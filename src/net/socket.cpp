#include "net/socket.h"

#include <arpa/inet.h>
#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "util/error.h"

namespace leqa::net {

namespace {

[[noreturn]] void fail(const std::string& what) {
    throw util::Error(what + ": " + util::errno_message(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
        throw util::InputError("not an IPv4 address: \"" + host + "\"");
    }
    return addr;
}

} // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
    if (this != &other) {
        close();
        fd_ = other.release();
    }
    return *this;
}

int Socket::release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
}

void Socket::close() {
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Socket listen_tcp(const std::string& host, std::uint16_t port) {
    Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
    if (!socket.valid()) fail("socket");
    const int one = 1;
    if (::setsockopt(socket.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) != 0) {
        fail("setsockopt(SO_REUSEADDR)");
    }
    const sockaddr_in addr = make_addr(host, port);
    if (::bind(socket.fd(), reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
        fail("bind " + host + ":" + std::to_string(port));
    }
    if (::listen(socket.fd(), 128) != 0) fail("listen");
    set_nonblocking(socket.fd());
    return socket;
}

std::uint16_t local_port(const Socket& socket) {
    sockaddr_in addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
        fail("getsockname");
    }
    return ntohs(addr.sin_port);
}

Socket connect_tcp(const std::string& host, std::uint16_t port) {
    Socket socket(::socket(AF_INET, SOCK_STREAM, 0));
    if (!socket.valid()) fail("socket");
    const sockaddr_in addr = make_addr(host, port);
    for (;;) {
        if (::connect(socket.fd(), reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)) == 0) {
            break;
        }
        if (errno == EINTR) continue;
        fail("connect " + host + ":" + std::to_string(port));
    }
    const int one = 1;
    // Best effort: latency tuning, not correctness.
    ::setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    return socket;
}

void set_nonblocking(int fd) {
    const int flags = ::fcntl(fd, F_GETFL, 0);
    if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
        fail("fcntl(O_NONBLOCK)");
    }
}

void send_all(const Socket& socket, std::string_view data) {
    while (!data.empty()) {
        const ssize_t sent = ::send(socket.fd(), data.data(), data.size(), MSG_NOSIGNAL);
        if (sent < 0) {
            if (errno == EINTR) continue;
            fail("send");
        }
        data.remove_prefix(static_cast<std::size_t>(sent));
    }
}

// ------------------------------------------------------------------ Client --

Client::Client(const std::string& host, std::uint16_t port, std::size_t max_line_bytes)
    : socket_(connect_tcp(host, port)), reader_(max_line_bytes) {}

void Client::send_line(const std::string& line) { send_raw(line + "\n"); }

void Client::send_raw(std::string_view data) { send_all(socket_, data); }

std::optional<std::string> Client::read_line() {
    for (;;) {
        if (std::optional<WireLine> line = reader_.next()) {
            // The server never sends overlong lines; treat one as a
            // protocol violation rather than silently skipping it.
            if (line->overlong) {
                throw util::Error("response line exceeded the client line cap");
            }
            return std::move(line->text);
        }
        if (eof_) return std::nullopt;
        char buffer[65536];
        const ssize_t got = ::recv(socket_.fd(), buffer, sizeof(buffer), 0);
        if (got < 0) {
            if (errno == EINTR) continue;
            fail("recv");
        }
        if (got == 0) {
            eof_ = true;
            reader_.finish();
            continue;
        }
        reader_.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
    }
}

void Client::finish_writes() {
    if (socket_.valid()) ::shutdown(socket_.fd(), SHUT_WR);
}

void Client::close() { socket_.close(); }

} // namespace leqa::net
