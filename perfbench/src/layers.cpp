/// \file layers.cpp
/// \brief Fixed inputs and the traced layer-by-layer decomposition.
#include "layers.h"

#include <algorithm>
#include <cstdlib>
#include <filesystem>

#include "bench.h"
#include "benchgen/suite.h"
#include "fabric/topology.h"
#include "core/optimize.h"
#include "fabric/geometry.h"
#include "parser/io.h"
#include "qspr/placement.h"
#include "qspr/qspr.h"
#include "report/report.h"
#include "synth/ft_synth.h"
#include "util/json.h"

namespace perfbench {

using namespace leqa;

core::ExplorationSpec explore_spec() {
    core::ExplorationSpec spec;
    spec.topologies = {fabric::TopologyKind::Grid, fabric::TopologyKind::Torus,
                       fabric::TopologyKind::Line};
    spec.sides = {40, 44, 48, 52, 56, 60, 64, 72};
    spec.capacities = {3, 4, 5, 6};
    spec.speeds = {0.0005, 0.001, 0.002, 0.004, 0.006, 0.008, 0.012, 0.016};
    spec.threads = 1;
    return spec;
}

core::OptimizeOptions optimize_options(std::uint64_t seed, std::size_t moves) {
    core::OptimizeOptions options;
    options.mode = core::OptimizeMode::Greedy;
    options.max_moves = moves;
    options.seed = seed;
    return options;
}

std::string optimize_key(const std::string& circuit, std::uint64_t seed, std::size_t moves) {
    return circuit + "/seed" + std::to_string(seed) + "/moves" + std::to_string(moves);
}

pipeline::CircuitSource CircuitInput::source() const {
    return kind == Kind::Bench ? pipeline::CircuitSource::from_bench(name)
                               : pipeline::CircuitSource::from_path(path);
}

std::string CircuitInput::label() const {
    switch (kind) {
        case Kind::Bench: return "bench:" + name;
        case Kind::Qasm: return "qasm:" + name;
        case Kind::FtQasm: return "ftqasm:" + name;
    }
    return name;
}

LayerCounts& layer_counts() {
    static LayerCounts counts;
    return counts;
}

FrontEnd build_front_end(const CircuitInput& input) {
    LayerCounts& counts = layer_counts();
    FrontEnd out;
    {
        const Span resolve("pipeline.resolve");
        circuit::Circuit loaded = [&] {
            if (input.kind == CircuitInput::Kind::Bench) {
                const Span span("benchgen.generate");
                circuit::Circuit generated = benchgen::make_benchmark(input.name);
                counts.benchgen_gates += static_cast<double>(generated.size());
                return generated;
            }
            const Span span("parser.load");
            circuit::Circuit parsed = parser::load_netlist(input.path);
            counts.parser_bytes += static_cast<double>(std::filesystem::file_size(input.path));
            counts.parser_gates += static_cast<double>(parsed.size());
            return parsed;
        }();
        if (input.kind == CircuitInput::Kind::FtQasm) {
            // Synthesis off: the fixture is FT already.
            out.ft = std::make_unique<circuit::Circuit>(std::move(loaded));
        } else {
            const Span span("synth.ft_synthesize");
            out.ft = std::make_unique<circuit::Circuit>(synth::ft_synthesize(loaded).circuit);
            counts.synth_ft_ops += static_cast<double>(out.ft->size());
        }
    }
    {
        const Span graphs("pipeline.graphs");
        {
            const Span span("qodg.build");
            out.qodg = std::make_unique<qodg::Qodg>(*out.ft);
            counts.qodg_nodes += static_cast<double>(out.qodg->num_nodes());
        }
        {
            const Span span("iig.build");
            out.iig = std::make_unique<iig::Iig>(*out.ft);
            counts.iig_edges += static_cast<double>(out.iig->num_edges());
        }
        {
            const Span span("profile.build");
            out.profile = core::CircuitProfile::build(*out.qodg, *out.iig);
        }
    }
    return out;
}

std::array<double, circuit::kGateKindCount> ft_delays(const fabric::PhysicalParams& params,
                                                      double extra_us) {
    std::array<double, circuit::kGateKindCount> delays{};
    for (std::size_t k = 0; k < delays.size(); ++k) {
        const auto kind = static_cast<circuit::GateKind>(k);
        if (circuit::gate_info(kind).is_ft) delays[k] = params.delay_us(kind) + extra_us;
    }
    return delays;
}

core::LeqaEstimate traced_estimate(const qodg::Qodg& graph, const core::CircuitProfile& profile,
                                   const fabric::PhysicalParams& params) {
    LayerCounts& counts = layer_counts();
    const auto q_total = static_cast<long long>(profile.num_qubits);
    std::optional<fabric::CoverageHistogram> histogram;
    {
        const Span span("fabric.coverage");
        const auto topology = fabric::make_topology(params);
        histogram = topology->coverage_histogram(topology->zone_extent(profile.zone_area_b));
        counts.coverage_bins += static_cast<double>(histogram->bins().size());
    }
    if (q_total > 0) {
        const Span span("engine.surfaces");
        (void)core::EstimationEngine::expected_surfaces(*histogram, q_total,
                                                        std::min<long long>(q_total, 20));
    }
    qodg::LongestPath path;
    {
        const Span span("qodg.longest_path");
        path = graph.longest_path(graph.node_delays(ft_delays(params, 0.0)));
    }
    {
        const Span span("qodg.census");
        (void)graph.census(graph.critical_path(path));
    }
    const Span span("engine.scalar_estimate");
    return core::EstimationEngine(params).estimate(profile);
}

double estimate_input(const CircuitInput& input, bool decomposed) {
    const fabric::PhysicalParams params;
    if (decomposed) {
        const FrontEnd front = build_front_end(input);
        return traced_estimate(*front.qodg, front.profile, params).latency_us;
    }
    pipeline::PipelineConfig config;
    config.auto_synthesize = input.kind != CircuitInput::Kind::FtQasm;
    pipeline::Pipeline pipe(config);
    return pipe.run(pipeline::EstimationRequest(input.source())).estimate->latency_us;
}

MapOutcome map_circuit(pipeline::Pipeline& pipe, const std::string& circuit, bool decomposed) {
    const pipeline::CircuitSource source = pipeline::CircuitSource::from_bench(circuit);
    MapOutcome out;
    if (!decomposed) {
        const pipeline::EstimationResult result =
            pipe.run(pipeline::EstimationRequest(source, pipeline::RunMode::Both));
        out.leqa_us = result.estimate->latency_us;
        out.qspr_us = result.mapping->latency_us;
        out.ft_ops = result.circuit.ft_ops;
        out.stats = result.mapping->stats;
        return out;
    }
    const pipeline::PipelineConfig config = pipe.config();
    pipeline::CachedCircuitPtr entry;
    {
        const Span span("pipeline.resolve");
        entry = pipe.resolve(source);
        (void)entry->profile();
    }
    out.leqa_us = traced_estimate(entry->qodg(), entry->profile(), config.params).latency_us;
    {
        const Span span("qspr.placement");
        (void)qspr::initial_placement(
            fabric::FabricGeometry(fabric::make_topology(config.params)),
            entry->ft().num_qubits(), config.qspr.placement, config.qspr.seed);
    }
    const Span span("qspr.map");
    const qspr::QsprResult mapped = qspr::QsprMapper(config.params, config.qspr).map(entry->ft());
    out.qspr_us = mapped.latency_us;
    out.ft_ops = entry->ft().size();
    out.stats = mapped.stats;
    return out;
}

core::OptimizeResult optimize_circuit(pipeline::Pipeline& pipe, const std::string& circuit,
                                      std::uint64_t seed, std::size_t moves) {
    const pipeline::PipelineConfig config = pipe.config();
    const pipeline::CachedCircuitPtr entry =
        pipe.resolve(pipeline::CircuitSource::from_bench(circuit));
    std::vector<fabric::UlbId> homes;
    {
        const Span span("qspr.placement");
        homes = qspr::initial_placement(fabric::FabricGeometry(fabric::make_topology(config.params)),
                                        entry->ft().num_qubits(), config.qspr.placement,
                                        config.qspr.seed);
    }
    const Span span("placed.optimize");
    return core::optimize_placement(entry->qodg(), entry->ft(), config.params, std::move(homes),
                                    optimize_options(seed, moves));
}

double checksum_us(const std::vector<core::SweepPoint>& points) {
    double total = 0.0;
    for (const core::SweepPoint& point : points) total += point.estimate.latency_us;
    return total;
}

void LayerInputs::add_cache(const pipeline::CacheStats& stats) {
    cache.circuit_hits += stats.circuit_hits;
    cache.circuit_misses += stats.circuit_misses;
    cache.graph_hits += stats.graph_hits;
    cache.graph_misses += stats.graph_misses;
    cache.evictions += stats.evictions;
    surfaces.hits += stats.surface_hits;
    surfaces.recomputes += stats.surface_recomputes;
    surfaces.evictions += stats.surface_evictions;
}

void LayerInputs::add_qspr(const qspr::QsprStats& stats, std::size_t ft_ops) {
    qspr_ops += static_cast<double>(ft_ops);
    qspr.total_hops += stats.total_hops;
    qspr.evictions += stats.evictions;
    qspr.relocations += stats.relocations;
}

void LayerInputs::add_optimize(const core::OptimizeResult& result) {
    moves_attempted += static_cast<double>(result.moves_attempted);
    moves_accepted += static_cast<double>(result.moves_accepted);
    moves_fast_rejected += static_cast<double>(result.moves_fast_rejected);
    nodes_retimed += static_cast<double>(result.nodes_retimed);
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

} // namespace

void report_layers(Report& report, const TraceSummary& trace, const LayerInputs& in) {
    const LayerCounts& counts = layer_counts();
    const auto total = [&](const char* name) { return trace.of(name).total_s; };
    const auto per_call = [&](const char* name) {
        const SpanStats& stats = trace.of(name);
        return ratio(stats.total_s, static_cast<double>(stats.count));
    };

    report.set("parser.busy_s", total("parser.load"), "s");
    report.set("parser.mb_per_s", ratio(counts.parser_bytes / 1e6, total("parser.load")), "MB/s");
    report.set("parser.gates_per_s", ratio(counts.parser_gates, total("parser.load")), "1/s");
    report.set("benchgen.busy_s", total("benchgen.generate"), "s");
    report.set("benchgen.gates_per_s",
               ratio(counts.benchgen_gates, total("benchgen.generate")), "1/s");
    report.set("synth.busy_s", total("synth.ft_synthesize"), "s");
    report.set("synth.ft_ops_per_s",
               ratio(counts.synth_ft_ops, total("synth.ft_synthesize")), "1/s");

    report.set("qodg.build_s", total("qodg.build"), "s");
    report.set("qodg.nodes_per_s", ratio(counts.qodg_nodes, total("qodg.build")), "1/s");
    report.set("qodg.longest_path_s", total("qodg.longest_path"), "s");
    report.set("qodg.census_s", total("qodg.census"), "s");
    report.set("iig.build_s", total("iig.build"), "s");
    report.set("iig.edges", counts.iig_edges, "count");
    report.set("profile.build_s", total("profile.build"), "s");
    report.set("fabric.coverage_s", total("fabric.coverage"), "s");
    report.set("fabric.coverage_bins", counts.coverage_bins, "count");

    const double batch_s = total("engine.explore") + total("engine.sweep");
    report.set("engine.batch_points_per_s", ratio(in.batch_points, batch_s), "1/s");
    report.set("engine.batch_busy_s", batch_s, "s");
    report.set("engine.scalar_estimate_s", per_call("engine.scalar_estimate"), "s");
    report.set("engine.surfaces_s", total("engine.surfaces"), "s");
    report.set("engine.surface_hit_ratio",
               ratio(static_cast<double>(in.surfaces.hits),
                     static_cast<double>(in.surfaces.hits + in.surfaces.recomputes)),
               "ratio");

    const double front_end = total("pipeline.resolve") + total("pipeline.graphs");
    report.set("pipeline.resolve_s", total("pipeline.resolve"), "s");
    report.set("pipeline.graphs_s", total("pipeline.graphs"), "s");
    report.set("pipeline.circuit_hit_ratio",
               ratio(static_cast<double>(in.cache.circuit_hits),
                     static_cast<double>(in.cache.circuit_hits + in.cache.circuit_misses)),
               "ratio");
    report.set("pipeline.graph_hit_ratio",
               ratio(static_cast<double>(in.cache.graph_hits),
                     static_cast<double>(in.cache.graph_hits + in.cache.graph_misses)),
               "ratio");
    report.set("pipeline.evictions", static_cast<double>(in.cache.evictions), "count");
    report.set("pipeline.front_end_share", ratio(front_end, trace.root_s), "ratio");

    report.set("service.queue_wait_p50_s", in.service.queue_wait.p50_s, "s");
    report.set("service.queue_wait_p99_s", in.service.queue_wait.p99_s, "s");
    report.set("service.service_time_p50_s", in.service.service_time.p50_s, "s");
    report.set("service.service_time_p99_s", in.service.service_time.p99_s, "s");
    report.set("service.rejected", static_cast<double>(in.service.rejected), "count");
    report.set("service.peak_queue_depth", static_cast<double>(in.service.peak_queue_depth),
               "count");

    report.set("net.framing_mb_per_s", in.framing_mb_per_s, "MB/s");
    report.set("net.stats_rtt_p50_s", in.stats_rtt_s.median(), "s");
    report.set("net.overhead_p50_s", in.overhead_s.median(), "s");
    report.set("serve.generator_lag_p99_s", in.generator_lag_s.quantile(0.99), "s");
    report.set("wire.decode_s", total("wire.decode"), "s");
    report.set("wire.encode_s", total("wire.encode"), "s");
    report.set("wire.response_bytes_mean", in.response_bytes.mean(), "bytes");

    report.set("qspr.map_busy_s", total("qspr.map"), "s");
    report.set("qspr.ops_per_s", ratio(in.qspr_ops, total("qspr.map")), "1/s");
    report.set("qspr.placement_s", total("qspr.placement"), "s");
    report.set("qspr.total_hops", static_cast<double>(in.qspr.total_hops), "count");
    report.set("qspr.evictions", static_cast<double>(in.qspr.evictions), "count");
    report.set("qspr.relocations", static_cast<double>(in.qspr.relocations), "count");

    report.set("placed.moves_per_s", ratio(in.moves_attempted, total("placed.optimize")), "1/s");
    report.set("placed.fast_reject_ratio", ratio(in.moves_fast_rejected, in.moves_attempted),
               "ratio");
    report.set("placed.accept_ratio", ratio(in.moves_accepted, in.moves_attempted), "ratio");
    report.set("placed.nodes_retimed_per_move", ratio(in.nodes_retimed, in.moves_attempted),
               "count");
}

std::string mask_stage_times(std::string json) {
    const std::string key = "\"stage_times_s\":{";
    const std::size_t begin = json.find(key);
    if (begin == std::string::npos) return json;
    const std::size_t body = begin + key.size();
    const std::size_t end = json.find('}', body);
    if (end == std::string::npos) return json;
    json.erase(body, end - body);
    return json;
}

double stage_total_s(const std::string& line) {
    const std::string key = "\"stage_times_s\":{";
    const std::size_t body = line.find(key);
    if (body == std::string::npos) return 0.0;
    const std::size_t total = line.find("\"total\":", body);
    if (total == std::string::npos) return 0.0;
    return std::strtod(line.c_str() + total + 8, nullptr);
}

std::string expected_result_line(std::uint64_t id, const pipeline::EstimationResult& result) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("id", static_cast<long long>(id));
    json.key("result").raw_value(report::result_to_json(result));
    json.end_object();
    return json.str();
}

} // namespace perfbench
