/// \file oracle.cpp
/// \brief Expected-value store, its recorder, and the shared oracle.
#include "oracle.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "benchgen/suite.h"
#include "layers.h"
#include "net/server.h"
#include "net/socket.h"
#include "parser/io.h"
#include "parser/qasm.h"
#include "service/service.h"
#include "service/wire.h"
#include "synth/ft_synth.h"

namespace perfbench {

using namespace leqa;

// --- expected values ------------------------------------------------------------

Expected Expected::load(const std::string& path) {
    Expected expected;
    expected.doc_ = util::json_parse(parser::read_file(path));
    return expected;
}

double Expected::number(const std::string& section, const std::string& key) const {
    const util::JsonValue* table = doc_.find(section);
    const util::JsonValue* value = table ? table->find(key) : nullptr;
    if (value == nullptr) throw std::runtime_error("expected.json has no " + section + "/" + key);
    return value->as_number();
}

double Expected::leqa_us(const std::string& circuit) const { return number("leqa_us", circuit); }
double Expected::qspr_us(const std::string& circuit) const { return number("qspr_us", circuit); }
double Expected::optimize_us(const std::string& key) const { return number("optimize_us", key); }
double Expected::sweep_checksum_us(const std::string& circuit) const {
    return number("sweep_us", circuit);
}

std::size_t Expected::explore_best(const std::string& circuit) const {
    return static_cast<std::size_t>(doc_.at("explore").at(circuit).at("best_index").as_number());
}

double Expected::explore_checksum_us(const std::string& circuit) const {
    return doc_.at("explore").at(circuit).at("checksum_us").as_number();
}

// --- recorder -------------------------------------------------------------------

namespace {

/// Minimal writer with full double precision (%.17g round-trips).
class Sections {
public:
    void put(const std::string& section, const std::string& entry) {
        for (auto& [name, entries] : sections_) {
            if (name == section) {
                entries.push_back(entry);
                return;
            }
        }
        sections_.push_back({section, {entry}});
    }
    void number(const std::string& section, const std::string& key, double value) {
        char text[64];
        std::snprintf(text, sizeof text, "%.17g", value);
        put(section, "\"" + key + "\": " + text);
    }
    [[nodiscard]] std::string str() const {
        std::string out = "{\n";
        for (std::size_t s = 0; s < sections_.size(); ++s) {
            out += "  \"" + sections_[s].first + "\": {\n";
            const auto& entries = sections_[s].second;
            for (std::size_t e = 0; e < entries.size(); ++e) {
                out += "    " + entries[e] + (e + 1 < entries.size() ? ",\n" : "\n");
            }
            out += s + 1 < sections_.size() ? "  },\n" : "  }\n";
        }
        return out + "}\n";
    }

private:
    std::vector<std::pair<std::string, std::vector<std::string>>> sections_;
};

} // namespace

void record_expected(const std::string& path) {
    Sections out;
    pipeline::Pipeline pipe;
    const fabric::PhysicalParams params = pipe.config().params;
    const core::LeqaEstimator reference(params);

    std::set<std::string> estimated(kColdBenches.begin(), kColdBenches.end());
    estimated.insert(kMapCircuits.begin(), kMapCircuits.end());
    estimated.insert(kExploreCircuits.begin(), kExploreCircuits.end());
    estimated.insert(kOracleCircuit);
    for (const std::string& name : estimated) {
        const auto source = pipeline::CircuitSource::from_bench(name);
        const pipeline::CachedCircuitPtr entry = pipe.resolve(source);
        const double ref = reference.estimate_reference(entry->qodg(), entry->iig()).latency_us;
        const double engine = pipe.run(pipeline::EstimationRequest(source)).estimate->latency_us;
        std::printf("leqa %-18s reference %.17g engine %.17g%s\n", name.c_str(), ref, engine,
                    close_rel(ref, engine) ? "" : "  MISMATCH");
        out.number("leqa_us", name, ref);
    }

    std::set<std::string> mapped(kMapCircuits.begin(), kMapCircuits.end());
    mapped.insert(kOracleMapCircuits.begin(), kOracleMapCircuits.end());
    for (const std::string& name : mapped) {
        const MapOutcome outcome = map_circuit(pipe, name, false);
        std::printf("qspr %-18s %.17g\n", name.c_str(), outcome.qspr_us);
        out.number("qspr_us", name, outcome.qspr_us);
    }

    for (const std::string& name : kOptimizeCircuits) {
        for (std::uint64_t seed = 1; seed <= kOptimizeSeeds; ++seed) {
            const double latency =
                optimize_circuit(pipe, name, seed, kOptimizeMoves).final_latency_us;
            out.number("optimize_us", optimize_key(name, seed, kOptimizeMoves), latency);
        }
    }
    out.number("optimize_us", optimize_key(kOracleOptimizeCircuit, 1, kOracleOptimizeMoves),
               optimize_circuit(pipe, kOracleOptimizeCircuit, 1, kOracleOptimizeMoves)
                   .final_latency_us);

    for (const std::string& name : kExploreCircuits) {
        const auto source = pipeline::CircuitSource::from_bench(name);
        const core::ExplorationResult explored = pipe.explore(source, explore_spec());
        char entry[256];
        std::snprintf(entry, sizeof entry, "\"%s\": {\"best_index\": %zu, \"checksum_us\": %.17g}",
                      name.c_str(), explored.best_index, checksum_us(explored.points));
        out.put("explore", entry);
        out.number("sweep_us", name, checksum_us(pipe.sweep_speed(source, kSweepSpeeds).points));
    }

    std::ofstream(path) << out.str();
    std::printf("wrote %s\n", path.c_str());
}

// --- shared oracle ----------------------------------------------------------------

std::size_t write_qasm_fixtures(const std::string& name, const std::string& qasm_path,
                                const std::string& ft_qasm_path) {
    const circuit::Circuit circ = benchgen::make_benchmark(name);
    parser::write_file(qasm_path, parser::write_qasm(circ));
    const circuit::Circuit ft = synth::ft_synthesize(circ).circuit;
    parser::write_file(ft_qasm_path, parser::write_qasm(ft));
    return ft.size();
}

namespace {

/// One served estimate plus a stats op over loopback, compared with a direct
/// Pipeline::run serialized by report::result_to_json.
void serve_oracle(Tally& tally, LayerInputs& inputs) {
    service::ServiceOptions service_options;
    service_options.threads = 1;
    service::Service service(pipeline::PipelineConfig{}, service_options);
    net::ServerOptions server_options;
    server_options.host = "127.0.0.1";
    net::Server server(service, server_options);
    std::thread reactor([&] { server.run(); });

    service::wire::WireRequest request;
    request.id = 1;
    request.op = service::wire::WireRequest::Op::Estimate;
    request.source = "bench:" + kOracleCircuit;
    request.params.topology = fabric::TopologyKind::Torus;
    request.params.nc = 4;
    service::wire::WireRequest stats;
    stats.id = 2;
    stats.op = service::wire::WireRequest::Op::Stats;
    try {
        net::Client client(server_options.host, server.port());
        std::optional<std::string> line;
        std::string stream; // the responses, replayed through the framer below
        double sent = now_s();
        {
            const Span span("net.request");
            client.send_line(service::wire::serialize_request(request));
            // Sent on demand, so the generator's lateness is encode + send.
            inputs.generator_lag_s.add(now_s() - sent);
            line = client.read_line();
        }
        if (line) {
            stream += *line + "\n";
            inputs.overhead_s.add(now_s() - sent - stage_total_s(*line));
            inputs.response_bytes.add(static_cast<double>(line->size()));
        }
        pipeline::Pipeline direct;
        pipeline::EstimationRequest run(pipeline::CircuitSource::from_bench(kOracleCircuit));
        run.params = request.params.apply(direct.config().params);
        run.label = request.source; // the service labels a run by its source spec
        pipeline::EstimationResult result = [&] {
            const Span span("pipeline.run");
            return direct.run(run);
        }();
        std::string expected;
        {
            const Span span("wire.encode");
            expected = expected_result_line(request.id, result);
        }
        tally.check(line && mask_stage_times(*line) == mask_stage_times(expected),
                    "oracle: served estimate differs from the direct run");
        sent = now_s();
        {
            const Span span("net.request");
            client.send_line(service::wire::serialize_request(stats));
            line = client.read_line();
        }
        inputs.stats_rtt_s.add(now_s() - sent);
        if (line) stream += *line + "\n";
        const auto response =
            line ? service::wire::parse_response(*line)
                 : util::Result<service::wire::WireResponse>(
                       util::Status(util::StatusCode::Internal, "eof"));
        tally.check(response.ok() && response.value().id == 2 &&
                        response.value().result.find("stats") != nullptr,
                    "oracle: stats op failed");
        client.finish_writes();
        while (client.read_line()) tally.fail("oracle: unexpected extra response");
        {
            const Span span("wire.decode");
            tally.check(service::wire::parse_request(service::wire::serialize_request(request)).ok() &&
                            service::wire::parse_request(service::wire::serialize_request(stats)).ok(),
                        "oracle: request does not decode");
        }
        const double start = now_s();
        std::size_t lines = 0;
        {
            const Span span("net.framing");
            net::LineReader reader(1 << 20);
            reader.feed(stream);
            while (reader.next()) ++lines;
        }
        if (inputs.framing_mb_per_s == 0.0) {
            inputs.framing_mb_per_s = static_cast<double>(stream.size()) / 1e6 / (now_s() - start);
        }
        tally.check(lines == 2, "oracle: framing replay lost lines");
    } catch (const std::exception& error) {
        tally.fail(std::string("oracle: serve failed: ") + error.what());
    }
    server.stop();
    reactor.join();
    if (!inputs.has_service) inputs.service = service.stats();
}

} // namespace

double run_common_oracle(const Expected& expected, Tally& tally, const std::string& workdir,
                         LayerInputs& inputs) {
    const Span root("run.oracle");
    const bool decomposed = tracer().enabled();

    // bench: vs pre-FT .qasm vs FT .qasm (synthesis off) of one circuit.
    const std::string qasm = workdir + "/oracle.qasm";
    const std::string ft_qasm = workdir + "/oracle_ft.qasm";
    {
        const Span span("bench.fixtures");
        (void)write_qasm_fixtures(kOracleCircuit, qasm, ft_qasm);
    }
    const double reference = expected.leqa_us(kOracleCircuit);
    const CircuitInput sources[] = {
        {CircuitInput::Kind::Bench, kOracleCircuit, ""},
        {CircuitInput::Kind::Qasm, kOracleCircuit, qasm},
        {CircuitInput::Kind::FtQasm, kOracleCircuit, ft_qasm},
    };
    for (const CircuitInput& input : sources) {
        const double latency = estimate_input(input, decomposed);
        tally.check(close_rel(latency, reference),
                    "oracle: " + input.label() + " LEQA latency differs from the reference");
    }

    // QSPR latencies and the model's error against them.
    pipeline::Pipeline pipe;
    double error_sum = 0.0;
    for (const std::string& name : kOracleMapCircuits) {
        const MapOutcome outcome = map_circuit(pipe, name, decomposed);
        tally.check(close_rel(outcome.leqa_us, expected.leqa_us(name)) &&
                        close_rel(outcome.qspr_us, expected.qspr_us(name)),
                    "oracle: map of " + name + " differs from the recorded latencies");
        error_sum += std::fabs(outcome.leqa_us - outcome.qspr_us) / outcome.qspr_us;
        inputs.add_qspr(outcome.stats, outcome.ft_ops);
    }

    // A small exploration (the engine's batch path).
    core::ExplorationSpec spec;
    spec.sides = {40, 50};
    spec.speeds = {0.001, 0.002};
    const core::ExplorationResult explored = [&] {
        const Span span("engine.explore");
        return pipe.explore(pipeline::CircuitSource::from_bench(kOracleCircuit), spec);
    }();
    tally.check(explored.has_best() && explored.points.size() == 4,
                "oracle: exploration has no best point");
    if (decomposed) inputs.batch_points += static_cast<double>(explored.points.size());

    // Seeded greedy optimize.
    const core::OptimizeResult optimized =
        optimize_circuit(pipe, kOracleOptimizeCircuit, 1, kOracleOptimizeMoves);
    tally.check(close_rel(optimized.final_latency_us,
                          expected.optimize_us(
                              optimize_key(kOracleOptimizeCircuit, 1, kOracleOptimizeMoves))),
                "oracle: optimize final latency differs from the recorded one");
    inputs.add_optimize(optimized);
    inputs.add_cache(pipe.cache_stats());

    serve_oracle(tally, inputs);
    return 100.0 * error_sum / static_cast<double>(kOracleMapCircuits.size());
}

} // namespace perfbench
