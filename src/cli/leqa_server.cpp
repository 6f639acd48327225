/// \file leqa_server.cpp
/// \brief LEQA as a long-lived daemon: NDJSON requests in, NDJSON responses
///        out, backed by the async service::Service.  Two transports:
///
///   stdio (default)   one client over stdin/stdout; EOF *or* SIGTERM/
///                     SIGINT drains gracefully (every accepted request
///                     still gets its response) and exits 0.
///   --listen <port>   poll-reactor TCP server (see net/server.h): N
///                     concurrent connections, connection-local id spaces,
///                     `Unavailable` rejections instead of blocking when
///                     the bounded queue fills, graceful drain on signal.
///
/// One JSON object per line in both modes (see service/wire.h for the
/// format).  Request lines are length-capped (--max-line): an overlong
/// line answers ParseError and the stream resynchronizes at the next
/// newline.  No request -- however malformed -- can crash the daemon.
///
/// Examples:
///   printf '{"id":1,"op":"estimate","source":"bench:ham3"}\n' | leqa_server
///   leqa_server --threads 8 --max-queue 256 --fabric 80x80 < requests.ndjson
///   leqa_server --listen 7421 --threads 8 --max-conns 256
///   leqa_server --listen 0        # ephemeral port, printed on stdout
#include <csignal>
#include <cstdio>
#include <poll.h>
#include <string>
#include <unistd.h>

#include "cli/common.h"
#include "net/framing.h"
#include "net/server.h"
#include "net/session.h"
#include "net/socket.h"
#include "pipeline/pipeline.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/args.h"
#include "util/error.h"
#include "util/thread_annotations.h"

namespace {

using namespace leqa;

/// Self-pipe for SIGTERM/SIGINT: the handler only write()s (async-signal-
/// safe); both the stdio loop and the TCP reactor poll the read end and
/// begin a graceful drain when it turns readable.
int g_signal_pipe_wr = -1;

extern "C" void on_terminate_signal(int) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t rc = ::write(g_signal_pipe_wr, &byte, 1);
}

/// Install the self-pipe and the handlers; returns the read end.
int install_signal_pipe() {
    int fds[2];
    if (::pipe(fds) != 0) throw util::Error("signal pipe creation failed");
    net::set_nonblocking(fds[0]);
    net::set_nonblocking(fds[1]);
    g_signal_pipe_wr = fds[1];
    struct sigaction action{};
    action.sa_handler = on_terminate_signal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: blocking poll() must wake on signal
    ::sigaction(SIGTERM, &action, nullptr);
    ::sigaction(SIGINT, &action, nullptr);
    return fds[0];
}

/// stdio transport: poll stdin + the signal pipe, feed a bounded
/// LineReader, dispatch through one net::Session.  On stdin EOF or a
/// termination signal, drains the service *before* returning -- the emit
/// sink (and its stdout mutex) must outlive every in-flight completion.
void run_stdio(service::Service& service, std::size_t max_line_bytes,
               int signal_fd) {
    util::Mutex out_mutex;
    const auto session = net::Session::make(
        service,
        [&out_mutex](std::string line) {
            const util::MutexLock lock(out_mutex);
            std::fputs(line.c_str(), stdout);
            std::fputc('\n', stdout);
            std::fflush(stdout);
        },
        net::SessionOptions{/*reject_when_full=*/false});

    net::LineReader reader(max_line_bytes);

    char buffer[65536];
    bool reading = true;
    while (reading) {
        pollfd fds[2] = {{STDIN_FILENO, POLLIN, 0}, {signal_fd, POLLIN, 0}};
        if (::poll(fds, 2, -1) < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (fds[1].revents & POLLIN) break; // signal: stop reading, drain
        if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
            const ssize_t got = ::read(STDIN_FILENO, buffer, sizeof(buffer));
            if (got < 0) {
                if (errno == EINTR) continue;
                break;
            }
            if (got == 0) { // EOF
                reader.finish();
                reading = false;
            } else {
                reader.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
            }
            session->handle_lines(reader);
        }
    }
    // Graceful drain: every accepted job still answers through this
    // session's emit, which references the locals above.
    service.drain();
}

int body(int argc, char** argv) {
    util::ArgParser parser(
        "LEQA NDJSON daemon: one JSON request per line, one JSON response "
        "per line (id-correlated, completion order); stdio by default, a "
        "multi-client TCP reactor with --listen");
    pipeline::add_param_options(parser);
    parser.add_option("threads", "service worker threads (0 = hardware)", "0");
    parser.add_option("max-queue", "queued-job bound (stdio blocks, TCP "
                      "rejects Unavailable when full)", "1024");
    parser.add_option("listen", "TCP port to serve on (0 = ephemeral; "
                      "omit for stdio mode)");
    parser.add_option("host", "TCP bind address", "127.0.0.1");
    parser.add_option("max-conns", "concurrent TCP connection cap", "1024");
    parser.add_option("max-line", "request line length cap in bytes",
                      "1048576");
    parser.add_flag("no-synth", "inputs are already FT-synthesized");
    if (!parser.parse(argc, argv)) return 0;

#ifdef SIGPIPE
    // A client that stops reading must not kill the daemon mid-drain: let
    // writes fail with EPIPE instead of raising the default-fatal signal.
    std::signal(SIGPIPE, SIG_IGN);
#endif
    const int signal_fd = install_signal_pipe();

    pipeline::PipelineConfig config;
    config.params = pipeline::params_from_args(parser);
    config.auto_synthesize = !parser.flag("no-synth");

    service::ServiceOptions service_options;
    service_options.threads = parser.option_size("threads");
    service_options.max_queue = parser.option_size("max-queue");

    const std::size_t max_line = parser.option_size("max-line");
    LEQA_REQUIRE(max_line >= 64, "--max-line must be at least 64 bytes");

    service::Service service(config, service_options);

    if (parser.option_given("listen")) {
        const long long port = parser.option_int("listen");
        LEQA_REQUIRE(port >= 0 && port <= 65535, "--listen port must be 0..65535");
        net::ServerOptions server_options;
        server_options.host = parser.option("host");
        server_options.port = static_cast<std::uint16_t>(port);
        server_options.max_connections = parser.option_size("max-conns");
        server_options.max_line_bytes = max_line;
        server_options.shutdown_fd = signal_fd;
        net::Server server(service, server_options);
        // Announce the bound endpoint (stdout carries no NDJSON in TCP
        // mode); harnesses parse this line to discover an ephemeral port.
        std::printf("listening on %s:%u\n", server_options.host.c_str(),
                    static_cast<unsigned>(server.port()));
        std::fflush(stdout);
        server.run(); // returns drained: every accepted request answered
    } else {
        run_stdio(service, max_line, signal_fd);
    }
    return 0;
}

} // namespace

int main(int argc, char** argv) { return leqa::cli::run_main(argc, argv, body); }
