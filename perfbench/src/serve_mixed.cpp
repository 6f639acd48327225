/// \file serve_mixed.cpp
/// \brief serve_mixed: an in-process net::Server over a one-worker Service,
///        fed warm NDJSON traffic by two loopback client connections.
///
/// Mix (seeded, fixed distribution): ~80% estimates on small suite circuits
/// with a params patch, ~8% fabric-side sweeps, ~8% 8-16-point explores,
/// ~4% inline stats ops.  Two phases:
///   - open loop at kOpenLoopRate requests/s (about half the closed-loop
///     capacity measured when the benchmark was defined), each request timed
///     from the instant it was due, so a stall also delays the requests
///     queued behind it; the generator's own lateness is reported;
///   - closed loop: each connection keeps one request outstanding.
/// Every response is checked after the run: estimates byte for byte against
/// a direct Pipeline::run serialized by report::result_to_json (wall times
/// masked), sweeps and explores against the direct call's serialization.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <map>
#include <stdexcept>
#include <thread>

#include "layers.h"
#include "net/framing.h"
#include "net/server.h"
#include "net/socket.h"
#include "oracle.h"
#include "report/report.h"
#include "service/wire.h"

namespace perfbench {
namespace {

using namespace leqa;
namespace wire = service::wire;

/// Open-loop offered load, requests/s over both connections: about half
/// the closed-loop capacity of this workload measured on the 4-CPU x86-64
/// box the benchmark was defined on.
constexpr double kOpenLoopRate = 3200.0;
constexpr std::size_t kClients = 2;
constexpr std::size_t kThreads = kClients + 2; ///< + reactor + one service worker
constexpr std::size_t kPool = 2048;            ///< seeded request templates
/// Traced run and its untraced twin: closed-loop requests per connection
/// per second of run (each pass then takes about a quarter of the run).
constexpr double kTraceRequestsPerSecond = 600.0;
/// Closed-loop throughput is the median rate over windows of this many
/// consecutive completions, so a burst of contention moves it little.
constexpr std::size_t kWindow = 256;
/// The open-loop p99 limit (s) the run is judged against.
constexpr double kP99Limit = 0.025;

const std::vector<std::string> kServeCircuits = {"ham15", "hwb15ps", "gf2^16mult"};

struct Template {
    wire::WireRequest request; ///< id set at send time
    std::string key;           ///< expected-output cache key ("" for stats)
};

/// One request on the wire.  The response is kept as a hash of its masked
/// bytes (plus the text of stats replies), so memory does not grow with the
/// request rate.
struct Sent {
    std::size_t template_index = 0;
    std::uint64_t id = 0;
    double due = 0, sent = 0, done = 0;
    bool answered = false;
    std::size_t hash = 0;     ///< std::hash of the response, stage times masked
    std::size_t bytes = 0;    ///< response line length
    double stage_total_s = 0; ///< pipeline wall time reported by an estimate
    std::string stats_text;   ///< the full line, for stats replies only
};

/// A blocking-connect, poll-driven NDJSON connection (so one thread can
/// both send on schedule and drain responses).
class Connection {
public:
    Connection(const std::string& host, std::uint16_t port)
        : socket_(net::connect_tcp(host, port)), reader_(1 << 20) {}

    void send(const std::string& line) { net::send_all(socket_, line + "\n"); }

    /// Wait up to \p timeout_s for data, then pop every complete line.
    bool receive(double timeout_s, std::vector<std::string>& lines) {
        pollfd fd{socket_.fd(), POLLIN, 0};
        timespec wait{};
        wait.tv_sec = static_cast<time_t>(timeout_s);
        wait.tv_nsec = static_cast<long>((timeout_s - static_cast<double>(wait.tv_sec)) * 1e9);
        const int ready = ppoll(&fd, 1, &wait, nullptr);
        if (ready < 0 && errno != EINTR) return false;
        if (ready > 0) {
            char buffer[1 << 16];
            const ssize_t got = ::recv(socket_.fd(), buffer, sizeof buffer, 0);
            if (got <= 0) return false;
            reader_.feed(std::string_view(buffer, static_cast<std::size_t>(got)));
        }
        while (std::optional<net::WireLine> line = reader_.next()) lines.push_back(std::move(line->text));
        return true;
    }

private:
    net::Socket socket_;
    net::LineReader reader_;
};

std::uint64_t response_id(const std::string& line) {
    const std::string key = "{\"id\":";
    return line.rfind(key, 0) == 0 ? std::strtoull(line.c_str() + key.size(), nullptr, 10) : 0;
}

class ServeMixed final : public Workload {
public:
    explicit ServeMixed(Context& ctx) : ctx_(ctx), rng_(ctx.options.seed) {
        if (kThreads > ctx.options.nproc) {
            throw std::runtime_error("serve_mixed needs " + std::to_string(kThreads) +
                                     " threads but nproc is " +
                                     std::to_string(ctx.options.nproc) + "; refusing to start");
        }
        // Exact mix proportions, then a seeded order: every seed sends the
        // same share of each op.
        for (std::size_t i = 0; i < kPool; ++i) {
            pool_.push_back(make_template(static_cast<double>(i) / kPool));
        }
        rng_.shuffle(pool_);
    }

    ~ServeMixed() override { teardown(); }

    void setup() override {
        service::ServiceOptions options;
        options.threads = 1;
        service_ = std::make_unique<service::Service>(pipeline::PipelineConfig{}, options);
        for (const std::string& name : kServeCircuits) {
            const Span span("pipeline.resolve");
            (void)service_->pipeline().resolve(pipeline::CircuitSource::from_bench(name))->profile();
        }
        net::ServerOptions server_options;
        server_options.host = kHost;
        server_ = std::make_unique<net::Server>(*service_, server_options);
        reactor_ = std::thread([this] { server_->run(); });
    }

    void teardown() override {
        if (!server_) return;
        server_->stop();
        reactor_.join();
        stats_ = service_->stats();
        server_.reset();
        service_.reset();
    }

    void measure(double seconds) override {
        const auto per_client =
            static_cast<std::size_t>(kOpenLoopRate / kClients * seconds / 2.0);
        open_loop(per_client, open_latency_s_, lag_s_);
        closed_s_ = closed_loop(0, seconds / 2.0, closed_requests_);
    }

    void end_to_end(Report& report) override {
        // Quietest slice: the highest slice median of the window rates.
        double rate = 0.0;
        const std::size_t count = std::min(kSlices, window_rate_.size());
        for (std::size_t s = 0; s < count; ++s) {
            rate = std::max(rate, window_rate_.slice(s, count).median());
        }
        report.set("work_per_s", rate, "1/s");
        report.set("latency_p50_s", open_latency_s_.quiet_median(), "s");
        char line[200];
        std::snprintf(line, sizeof line,
                      "serve_req_per_s              %.6g 1/s in the quietest sixth (closed loop, "
                      "%zu connections, %zu-response windows; %zu requests in %.3f s)",
                      rate, kClients, kWindow, closed_requests_, closed_s_);
        report.note(line);
        std::snprintf(line, sizeof line, "serve_p50_s                  %.6g s in the quietest sixth",
                      open_latency_s_.quiet_median());
        report.note(line);
        report.timing("  whole open loop", open_latency_s_);
        const double p99 = open_latency_s_.quantile(0.99);
        std::snprintf(line, sizeof line,
                      "serve_p99_s                  %.6g s at %.0f req/s offered (limit %.3g s: %s)",
                      p99, kOpenLoopRate, kP99Limit, p99 <= kP99Limit ? "met" : "MISSED");
        report.note(line);
        report.timing("serve.generator_lag_s", lag_s_);
    }

    [[nodiscard]] std::size_t trace_iterations(double seconds) const override {
        return scaled_count(kTraceRequestsPerSecond, seconds);
    }

    /// An open-loop phase of a quarter of the run, for the generator lag.
    void prepare_trace(double seconds) override {
        Samples latency;
        open_loop(scaled_count(kOpenLoopRate / kClients / 4.0, seconds), latency, lag_s_);
    }

    double run_iterations(std::size_t iterations) override {
        std::size_t done = 0;
        const double wall = closed_loop(iterations, 0.0, done);
        if (tracer().enabled()) replay_wire();
        return wall;
    }

    void layer_inputs(LayerInputs& inputs) override {
        inputs.has_service = true;
        inputs.service = stats_;
        inputs.generator_lag_s = lag_s_;
        inputs.stats_rtt_s = stats_rtt_s_;
        inputs.overhead_s = overhead_s_;
        inputs.framing_mb_per_s = framing_mb_per_s_;
        inputs.response_bytes = response_bytes_;
    }

    void verify() override {
        Tally& tally = *ctx_.tally;
        for (const Sent& sent : sent_) {
            const Template& t = pool_[sent.template_index];
            if (t.request.op == wire::WireRequest::Op::Stats) {
                const auto response = wire::parse_response(sent.stats_text);
                tally.check(response.ok() && response.value().id == sent.id &&
                                response.value().result.find("stats") != nullptr,
                            "serve_mixed: stats op failed");
                continue;
            }
            std::string want;
            {
                const Span span("wire.encode");
                want = "{\"id\":" + std::to_string(sent.id) + "," + expected_body(t);
            }
            tally.check(std::hash<std::string>{}(want) == sent.hash,
                        "serve_mixed: response to " + t.key + " differs from the direct run");
        }
        sent_.clear();
    }

private:
    static constexpr const char* kHost = "127.0.0.1";

    /// The template at quantile \p u of the mix: [0, 0.80) estimate,
    /// [0.80, 0.88) sweep, [0.88, 0.96) explore, [0.96, 1) stats.
    Template make_template(double u) {
        Template t;
        wire::WireRequest& request = t.request;
        const std::string circuit = rng_.pick(kServeCircuits);
        request.source = "bench:" + circuit;
        if (u < 0.80) {
            request.op = wire::WireRequest::Op::Estimate;
            const int side = std::vector<int>{40, 50, 60, 70}[rng_.index(4)];
            request.params.width = side;
            request.params.height = side;
            request.params.nc = 3 + static_cast<int>(rng_.index(4));
            request.params.v = std::vector<double>{0.001, 0.002, 0.004}[rng_.index(3)];
            request.params.topology =
                rng_.index(2) == 0 ? fabric::TopologyKind::Grid : fabric::TopologyKind::Torus;
        } else if (u < 0.88) {
            request.op = wire::WireRequest::Op::Sweep;
            request.axis = service::SweepAxis::FabricSides;
            request.values = {40, 50, 60};
        } else if (u < 0.96) {
            request.op = wire::WireRequest::Op::Explore;
            request.explore.sides = {40, 50};
            request.explore.speeds = {0.001, 0.002};
            request.explore.topologies = {fabric::TopologyKind::Grid, fabric::TopologyKind::Torus};
            if (rng_.index(2) == 0) request.explore.capacities = {3, 5}; // 16 points, else 8
            request.explore.threads = 1;
        } else {
            request.op = wire::WireRequest::Op::Stats;
            request.source.clear();
            return t;
        }
        request.id = 1;
        t.key = wire::serialize_request(request);
        return t;
    }

    /// Expected response after the id: `"result":{...}}` with stage times
    /// masked, computed once per distinct request from a direct call.
    const std::string& expected_body(const Template& t) {
        auto it = expected_.find(t.key);
        if (it != expected_.end()) return it->second;
        const wire::WireRequest& request = t.request;
        const auto source = pipeline::CircuitSource::from_bench(request.source.substr(6));
        std::string line;
        const Span span("pipeline.run");
        if (request.op == wire::WireRequest::Op::Estimate) {
            pipeline::EstimationRequest run(source);
            run.params = request.params.apply(direct_.config().params);
            run.label = request.source;
            line = expected_result_line(0, direct_.run(run));
        } else if (request.op == wire::WireRequest::Op::Sweep) {
            std::vector<int> sides(request.values.begin(), request.values.end());
            line = wire::serialize_result(0, service::JobOutput(direct_.sweep_fabric_sides(source, sides)));
        } else {
            line = wire::serialize_result(0, service::JobOutput(direct_.explore(source, request.explore)));
        }
        const std::string prefix = "{\"id\":0,";
        return expected_.emplace(t.key, mask_stage_times(line.substr(prefix.size()))).first->second;
    }

    /// Fill \p sent from its response line (on the client thread).  While
    /// tracing, the line is also kept for the framing replay.
    void record(Sent& sent, std::string&& line, std::size_t client) {
        sent.answered = true;
        sent.bytes = line.size();
        const wire::WireRequest::Op op = pool_[sent.template_index].request.op;
        if (op == wire::WireRequest::Op::Stats) {
            sent.stats_text = line;
        } else {
            if (op == wire::WireRequest::Op::Estimate) sent.stage_total_s = stage_total_s(line);
            sent.hash = std::hash<std::string>{}(mask_stage_times(line));
        }
        if (tracer().enabled()) {
            replay_[client] += line;
            replay_[client] += '\n';
        }
    }

    /// Open loop: each connection sends \p per_client requests on a fixed
    /// schedule, draining responses between sends.
    void open_loop(std::size_t per_client, Samples& latency, Samples& lag) {
        const double interval = kClients / kOpenLoopRate;
        const double t0 = now_s() + 0.01;
        std::vector<std::vector<Sent>> records(kClients);
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            records[c].resize(per_client);
            for (std::size_t k = 0; k < per_client; ++k) {
                Sent& sent = records[c][k];
                sent.template_index = next_template();
                sent.id = k + 1;
                sent.due = t0 + (static_cast<double>(k) + static_cast<double>(c) / kClients) * interval;
            }
            clients.emplace_back([&, c] { run_open_client(records[c], c); });
        }
        for (auto& client : clients) client.join();
        for (auto& client_records : records) {
            for (Sent& sent : client_records) {
                latency.add(sent.done - sent.due);
                lag.add(sent.sent - sent.due);
                sent_.push_back(std::move(sent));
            }
        }
    }

    void run_open_client(std::vector<Sent>& records, std::size_t client) {
        // Wake at the due time, not up to the default 50 us timer slack later:
        // the generator's own lateness is charged to every request it sends.
        prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
        try {
            Connection conn(kHost, server_->port());
            std::size_t next = 0, received = 0;
            std::vector<std::string> lines;
            while (received < records.size()) {
                double now = now_s();
                while (next < records.size() && records[next].due <= now) {
                    Sent& sent = records[next++];
                    wire::WireRequest request = pool_[sent.template_index].request;
                    request.id = sent.id;
                    conn.send(wire::serialize_request(request));
                    sent.sent = now_s();
                    now = sent.sent;
                }
                const double wait = next < records.size() ? records[next].due - now_s() : 1.0;
                lines.clear();
                if (!conn.receive(wait > 0 ? wait : 0.0, lines)) break;
                const double done = now_s();
                for (std::string& line : lines) {
                    const std::uint64_t id = response_id(line);
                    if (id == 0 || id > records.size() || records[id - 1].answered) {
                        ctx_.tally->fail("serve_mixed: unexpected response id");
                        continue;
                    }
                    records[id - 1].done = done;
                    record(records[id - 1], std::move(line), client);
                    ++received;
                }
            }
            if (received < records.size()) ctx_.tally->fail("serve_mixed: connection closed early");
        } catch (const std::exception& error) {
            ctx_.tally->fail(std::string("serve_mixed: open-loop client: ") + error.what());
        }
    }

    /// Closed loop: every connection keeps one request outstanding, for
    /// \p per_client requests (or, when 0, until \p seconds pass).  Returns
    /// the wall time; \p total counts completed requests.
    double closed_loop(std::size_t per_client, double seconds, std::size_t& total) {
        std::vector<std::vector<Sent>> records(kClients);
        std::vector<std::vector<std::size_t>> templates(kClients);
        const std::size_t planned = per_client > 0 ? per_client : kPool;
        for (std::size_t c = 0; c < kClients; ++c) {
            for (std::size_t k = 0; k < planned; ++k) templates[c].push_back(next_template());
        }
        const double start = now_s();
        const double deadline = per_client > 0 ? 0.0 : start + seconds;
        std::vector<std::thread> clients;
        for (std::size_t c = 0; c < kClients; ++c) {
            clients.emplace_back(
                [&, c] { run_closed_client(templates[c], deadline, records[c], c); });
        }
        for (auto& client : clients) client.join();
        const double wall = now_s() - start;
        total = 0;
        std::vector<double> completions;
        for (auto& client_records : records) {
            total += client_records.size();
            for (const Sent& sent : client_records) completions.push_back(sent.done);
            for (Sent& sent : client_records) {
                const Template& t = pool_[sent.template_index];
                if (t.request.op == wire::WireRequest::Op::Stats) {
                    stats_rtt_s_.add(sent.done - sent.sent);
                } else if (t.request.op == wire::WireRequest::Op::Estimate) {
                    overhead_s_.add(sent.done - sent.sent - sent.stage_total_s);
                }
                response_bytes_.add(static_cast<double>(sent.bytes));
                sent_.push_back(std::move(sent));
            }
        }
        std::sort(completions.begin(), completions.end());
        for (std::size_t w = kWindow; w < completions.size(); w += kWindow) {
            window_rate_.add(static_cast<double>(kWindow) / (completions[w] - completions[w - kWindow]));
        }
        return wall;
    }

    void run_closed_client(const std::vector<std::size_t>& templates, double deadline,
                           std::vector<Sent>& records, std::size_t client) {
        const Span root("run.client");
        try {
            Connection conn(kHost, server_->port());
            std::vector<std::string> lines;
            for (std::size_t k = 0;; ++k) {
                if (deadline > 0.0 ? now_s() >= deadline : k == templates.size()) break;
                const Span span("net.request");
                Sent sent;
                sent.template_index = templates[k % templates.size()];
                sent.id = records.size() + 1;
                wire::WireRequest request = pool_[sent.template_index].request;
                request.id = sent.id;
                sent.sent = now_s();
                conn.send(wire::serialize_request(request));
                lines.clear();
                while (lines.empty()) {
                    if (!conn.receive(1.0, lines)) throw std::runtime_error("connection closed");
                }
                sent.done = now_s();
                if (lines.size() != 1 || response_id(lines[0]) != sent.id) {
                    ctx_.tally->fail("serve_mixed: unexpected closed-loop response");
                }
                record(sent, std::move(lines[0]), client);
                records.push_back(std::move(sent));
            }
        } catch (const std::exception& error) {
            ctx_.tally->fail(std::string("serve_mixed: closed-loop client: ") + error.what());
        }
    }

    /// Traced replay of the captured traffic through the wire decoder and
    /// the line framer (the server-side calls the benchmark cannot span).
    void replay_wire() {
        const Span root("run.wire");
        std::string stream;
        for (std::string& part : replay_) {
            stream += part;
            part.clear();
        }
        const auto expected_lines =
            static_cast<std::size_t>(std::count(stream.begin(), stream.end(), '\n'));
        {
            const Span span("wire.decode");
            for (const Sent& sent : sent_) {
                wire::WireRequest request = pool_[sent.template_index].request;
                request.id = sent.id;
                if (!wire::parse_request(wire::serialize_request(request)).ok()) {
                    ctx_.tally->fail("serve_mixed: request does not decode");
                }
            }
        }
        const double start = now_s();
        {
            const Span span("net.framing");
            net::LineReader reader(1 << 20);
            std::size_t lines = 0;
            for (std::size_t off = 0; off < stream.size(); off += 1 << 16) {
                reader.feed(std::string_view(stream).substr(off, 1 << 16));
                while (reader.next()) ++lines;
            }
            ctx_.tally->check(lines == expected_lines, "serve_mixed: framing replay lost lines");
        }
        framing_mb_per_s_ = static_cast<double>(stream.size()) / 1e6 / (now_s() - start);
    }

    /// Templates go out in pool order, cycling, so any long run of
    /// requests carries the pool's mix.
    std::size_t next_template() { return cursor_++ % kPool; }

    Context& ctx_;
    Inputs rng_;
    std::vector<Template> pool_;
    std::size_t cursor_ = 0;
    std::unique_ptr<service::Service> service_;
    std::unique_ptr<net::Server> server_;
    std::thread reactor_;
    pipeline::Pipeline direct_;
    std::map<std::string, std::string> expected_;

    std::deque<Sent> sent_; ///< every request of every phase, checked in verify()
    std::vector<std::string> replay_ = std::vector<std::string>(kClients); ///< traced responses
    Samples window_rate_; ///< closed-loop responses/s per window (measured phase)
    Samples open_latency_s_, lag_s_, stats_rtt_s_, overhead_s_, response_bytes_;
    double closed_s_ = 0, framing_mb_per_s_ = 0;
    std::size_t closed_requests_ = 0;
    service::ServiceStats stats_;
};

} // namespace

std::unique_ptr<Workload> make_serve_mixed(Context& ctx) {
    return std::make_unique<ServeMixed>(ctx);
}

} // namespace perfbench
