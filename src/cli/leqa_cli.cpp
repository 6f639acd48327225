/// \file leqa_cli.cpp
/// \brief Command-line LEQA estimator: netlist (or generated benchmark) in,
///        latency estimate and model breakdown out.  A thin shell over the
///        leqa::pipeline::Pipeline facade.
///
/// Examples:
///   leqa_cli bench:gf2^16mult
///   leqa_cli path/to/circuit.qasm --fabric 80x80 --nc 3 --v 0.002
///   leqa_cli bench:hwb15ps --breakdown --dot qodg.dot
///   leqa_cli bench:ham3 bench:8bitadder bench:hwb15ps --threads 4 --cache-stats
///   leqa_cli bench:gf2^16mult --explore --topologies grid,torus
///            --sides 40,50,60 --capacities 3,5 --speeds 0.001,0.002 --threads 4
///   leqa_cli bench:ham3 --optimize --opt-moves 5000 --opt-seed 7
///
/// With more than one input the requests run as a thread-pooled batch with
/// per-request outcomes: a failing input prints its status line (and fails
/// the exit code) without losing the others.  With --explore the single
/// input is evaluated over the full cross-product of the given axes on
/// --threads workers (see core/explore.h).
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "cli/common.h"
#include "core/explore.h"
#include "parser/io.h"
#include "pipeline/pipeline.h"
#include "report/report.h"
#include "util/args.h"
#include "util/status.h"
#include "util/strings.h"

namespace {

using namespace leqa;

/// Parse one comma-separated axis list with \p parse_item; empty option ->
/// empty axis (keep the session default).
template <typename T, typename ParseItem>
std::vector<T> axis_values(const util::ArgParser& parser, const std::string& name,
                           ParseItem&& parse_item) {
    std::vector<T> values;
    if (!parser.option_given(name)) return values;
    for (const std::string& item : util::split(parser.option(name), ',')) {
        values.push_back(parse_item(item));
    }
    if (values.empty()) {
        throw util::InputError("--" + name + " needs a comma-separated list");
    }
    return values;
}

core::ExplorationSpec explore_spec_from_args(const util::ArgParser& parser) {
    core::ExplorationSpec spec;
    spec.topologies = axis_values<fabric::TopologyKind>(
        parser, "topologies",
        [](const std::string& item) { return fabric::parse_topology_kind(item); });
    const auto parse_int_item = [](const char* axis) {
        return [axis](const std::string& item) {
            const std::optional<long long> parsed = util::parse_int(item);
            const std::optional<int> value =
                parsed ? util::to_int(static_cast<double>(*parsed)) : std::nullopt;
            if (!value.has_value() || *value < 1) {
                throw util::InputError(std::string("--") + axis +
                                       ": bad value \"" + item + "\"");
            }
            return *value;
        };
    };
    spec.sides = axis_values<int>(parser, "sides", parse_int_item("sides"));
    spec.capacities = axis_values<int>(parser, "capacities", parse_int_item("capacities"));
    spec.speeds = axis_values<double>(parser, "speeds", [](const std::string& item) {
        const std::optional<double> parsed = util::parse_double(item);
        if (!parsed.has_value()) {
            throw util::InputError("--speeds: bad value \"" + item + "\"");
        }
        return *parsed;
    });
    if (spec.topologies.empty() && spec.sides.empty() && spec.capacities.empty() &&
        spec.speeds.empty()) {
        throw util::InputError(
            "--explore needs at least one axis "
            "(--topologies/--sides/--capacities/--speeds)");
    }
    spec.threads = parser.option_size("threads");
    return spec;
}

int run_explore(pipeline::Pipeline& pipe, const std::string& spec_text,
                const util::ArgParser& parser) {
    const core::ExplorationSpec spec = explore_spec_from_args(parser);
    const core::ExplorationResult result =
        pipe.explore(pipeline::parse_source(spec_text), spec);

    std::printf("explored %zu points on %zu thread%s\n", result.points.size(),
                result.threads_used, result.threads_used == 1 ? "" : "s");
    if (result.non_finite_points > 0) {
        std::printf("  %zu point(s) came back non-finite and were skipped\n",
                    result.non_finite_points);
    }
    if (result.has_best()) {
        const core::SweepPoint& best = result.best();
        std::printf("best: %s %dx%d, Nc=%d, v=%g -> D = %.6E s\n",
                    fabric::topology_kind_name(best.params.topology).c_str(),
                    best.params.width, best.params.height, best.params.nc,
                    best.params.v, best.estimate.latency_seconds());
    }
    for (const core::TopologyBest& best : result.best_per_topology) {
        const core::SweepPoint& point = result.points[best.index];
        std::printf("  best %-5s : %dx%d, Nc=%d, v=%g -> D = %.6E s\n",
                    fabric::topology_kind_name(best.kind).c_str(), point.params.width,
                    point.params.height, point.params.nc, point.params.v,
                    point.estimate.latency_seconds());
    }
    std::printf("latency/area pareto front (%zu points):\n",
                result.pareto_front.size());
    for (const std::size_t index : result.pareto_front) {
        const core::SweepPoint& point = result.points[index];
        std::printf("  area %8lld (%s %dx%d)  D = %.6E s\n", point.params.area(),
                    fabric::topology_kind_name(point.params.topology).c_str(),
                    point.params.width, point.params.height,
                    point.estimate.latency_seconds());
    }
    if (parser.option_given("json")) {
        parser::write_file(parser.option("json"),
                           report::exploration_to_json(result));
        std::printf("wrote JSON report to %s\n", parser.option("json").c_str());
    }
    return 0;
}

int run_optimize(pipeline::Pipeline& pipe, const std::string& spec_text,
                 const util::ArgParser& parser) {
    core::OptimizeOptions options;
    const std::size_t moves = parser.option_size("opt-moves");
    if (moves < 1) throw util::InputError("--opt-moves must be >= 1");
    options.max_moves = moves;
    options.seed = static_cast<std::uint64_t>(parser.option_size("opt-seed"));
    options.mode = core::parse_optimize_mode(parser.option("opt-mode"));
    options.max_seconds = parser.option_double("opt-seconds");
    if (options.max_seconds < 0.0) {
        throw util::InputError("--opt-seconds must be non-negative");
    }

    const core::OptimizeResult result =
        pipe.optimize(pipeline::parse_source(spec_text), options);

    const double pct = result.initial_latency_us > 0.0
                           ? 100.0 * (result.initial_latency_us -
                                      result.final_latency_us) /
                                 result.initial_latency_us
                           : 0.0;
    std::printf("placement optimization (%s, %zu-move budget, seed %llu)\n",
                core::optimize_mode_name(options.mode).c_str(), options.max_moves,
                static_cast<unsigned long long>(options.seed));
    std::printf("  initial placed latency: %.6E s\n",
                result.initial_latency_us * 1e-6);
    std::printf("  final placed latency:   %.6E s  (%.2f%% better)\n",
                result.final_latency_us * 1e-6, pct);
    std::printf("  moves: %zu attempted, %zu accepted, %zu fast-rejected by the "
                "incremental bound\n",
                result.moves_attempted, result.moves_accepted,
                result.moves_fast_rejected);
    std::printf("  re-timed %zu QODG nodes in %.3f s\n", result.nodes_retimed,
                result.seconds);
    if (parser.option_given("json")) {
        parser::write_file(parser.option("json"), report::optimize_to_json(result));
        std::printf("wrote JSON report to %s\n", parser.option("json").c_str());
    }
    return 0;
}

int run_many(pipeline::Pipeline& pipe, const std::vector<std::string>& specs,
             std::size_t threads, const util::ArgParser& parser) {
    // A bad spec (unknown bench, missing file) must cost only its own slot:
    // parse failures become pre-failed outcomes instead of throwing here and
    // aborting the whole batch.
    std::vector<pipeline::EstimationRequest> requests;
    requests.reserve(specs.size());
    std::vector<std::optional<util::Status>> rejected(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        try {
            requests.emplace_back(pipeline::parse_source(specs[i]));
            requests.back().label = specs[i];
        } catch (...) {
            rejected[i] = util::status_from_exception(std::current_exception(),
                                                      "resolve");
        }
    }
    std::vector<util::Result<pipeline::EstimationResult>> batch =
        pipe.run_batch_results(requests, threads);

    std::vector<util::Result<pipeline::EstimationResult>> outcomes;
    outcomes.reserve(specs.size());
    std::size_t next = 0;
    for (const std::optional<util::Status>& parse_failure : rejected) {
        if (parse_failure.has_value()) {
            outcomes.emplace_back(*parse_failure);
        } else {
            outcomes.emplace_back(std::move(batch[next++]));
        }
    }

    std::size_t failed = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (outcomes[i].ok()) {
            const pipeline::EstimationResult& result = outcomes[i].value();
            std::printf("%-24s D = %.6E s  (%zu qubits, %zu FT ops, %.3f ms)\n",
                        result.label.c_str(), result.estimate->latency_seconds(),
                        result.circuit.qubits, result.circuit.ft_ops,
                        result.times.total_s * 1e3);
        } else {
            ++failed;
            std::printf("%-24s %s\n", specs[i].c_str(),
                        outcomes[i].status().to_string().c_str());
        }
    }
    std::printf("batch: %zu inputs, %zu failed\n", outcomes.size(), failed);

    if (parser.option_given("json")) {
        parser::write_file(parser.option("json"),
                           report::batch_results_to_json(outcomes, specs));
        std::printf("wrote JSON report to %s\n", parser.option("json").c_str());
    }
    return failed == 0 ? 0 : 1;
}

int body(int argc, char** argv) {
    util::ArgParser parser(
        "LEQA: fast latency estimation for a quantum algorithm mapped to a "
        "tiled quantum circuit fabric (DAC 2013)");
    parser.add_positional("input", "netlist path (.qasm/.real) or bench:<name>");
    parser.add_rest("inputs", "more inputs: run all of them as one batch");
    pipeline::add_param_options(parser);
    parser.add_option("sq-terms", "number of E[S_q] terms (paper: 20)", "20");
    parser.add_option("threads", "batch / explore worker threads (0 = hardware)", "0");
    parser.add_flag("explore",
                    "evaluate the cross-product of the axis options below");
    parser.add_option("topologies",
                      "explore axis: comma-separated topologies (grid,torus,line)");
    parser.add_option("sides", "explore axis: comma-separated fabric sides");
    parser.add_option("capacities",
                      "explore axis: comma-separated channel capacities Nc");
    parser.add_option("speeds", "explore axis: comma-separated qubit speeds v");
    parser.add_flag("optimize",
                    "anneal the initial placement for minimal placed latency");
    parser.add_option("opt-moves", "optimize: candidate-move budget", "20000");
    parser.add_option("opt-seed", "optimize: RNG seed", "1");
    parser.add_option("opt-mode", "optimize: anneal | greedy", "anneal");
    parser.add_option("opt-seconds",
                      "optimize: wall-clock budget in seconds (0 = unbounded)", "0");
    parser.add_flag("exact-sq", "evaluate all Q terms of E[S_q]");
    parser.add_flag("breakdown", "print the model intermediates");
    parser.add_flag("no-synth", "input is already FT-synthesized");
    parser.add_flag("cache-stats", "print pipeline cache statistics after the run");
    parser.add_option("dot", "write the QODG as Graphviz DOT to this path");
    parser.add_option("json", "write the estimate as JSON to this path");
    if (!parser.parse(argc, argv)) return 0;

    pipeline::PipelineConfig config;
    config.params = pipeline::params_from_args(parser);
    const std::optional<int> sq_terms =
        util::to_int(static_cast<double>(parser.option_int("sq-terms")));
    LEQA_REQUIRE(sq_terms.has_value(), "--sq-terms is outside int range");
    config.leqa.sq_terms = *sq_terms;
    config.leqa.exact_sq = parser.flag("exact-sq");
    config.auto_synthesize = !parser.flag("no-synth");
    pipeline::Pipeline pipe(config);

    int exit_code = 0;
    if (parser.flag("optimize")) {
        if (parser.flag("explore")) {
            throw util::InputError("--optimize and --explore are exclusive");
        }
        if (!parser.rest().empty()) {
            throw util::InputError("--optimize runs on a single input");
        }
        exit_code = run_optimize(pipe, *parser.positional("input"), parser);
        if (parser.flag("cache-stats")) {
            std::printf("cache: %s\n", pipe.cache_stats().to_string().c_str());
        }
        return exit_code;
    }
    if (parser.flag("explore")) {
        if (!parser.rest().empty()) {
            throw util::InputError("--explore runs on a single input");
        }
        if (parser.option_given("dot") || parser.flag("breakdown")) {
            std::fprintf(stderr,
                         "note: --dot/--breakdown apply to single-estimate runs "
                         "and are ignored with --explore\n");
        }
        exit_code = run_explore(pipe, *parser.positional("input"), parser);
        if (parser.flag("cache-stats")) {
            std::printf("cache: %s\n", pipe.cache_stats().to_string().c_str());
        }
        return exit_code;
    }
    if (!parser.rest().empty()) {
        if (parser.option_given("dot") || parser.flag("breakdown")) {
            std::fprintf(stderr,
                         "note: --dot/--breakdown apply to single-input runs "
                         "and are ignored in batch mode\n");
        }
        std::vector<std::string> specs = {*parser.positional("input")};
        specs.insert(specs.end(), parser.rest().begin(), parser.rest().end());
        exit_code = run_many(pipe, specs, parser.option_size("threads"), parser);
    } else {
        pipeline::EstimationRequest request(
            pipeline::parse_source(*parser.positional("input")));
        const pipeline::EstimationResult result = pipe.run(request);
        const core::LeqaEstimate& estimate = *result.estimate;
        const fabric::PhysicalParams& params = result.params;
        const pipeline::CachedCircuitPtr entry = pipe.resolve(request.source);

        if (result.circuit.synthesized) {
            std::printf("ft synthesis: %s\n", entry->synth_stats().to_string().c_str());
        }
        std::printf("circuit: %s\n", result.circuit.name.c_str());
        std::printf("  logical qubits:      %zu\n", result.circuit.qubits);
        std::printf("  FT operations:       %zu (from %zu reversible gates)\n",
                    result.circuit.ft_ops, result.circuit.pre_ft_gates);
        std::printf("fabric: %dx%d ULBs (%s), Nc=%d, Tmove=%.0f us, v=%g\n", params.width,
                    params.height, fabric::topology_kind_name(params.topology).c_str(),
                    params.nc, params.t_move_us, params.v);
        std::printf("estimated latency D: %.6E s  (%.3f us)\n",
                    estimate.latency_seconds(), estimate.latency_us);
        std::printf("leqa runtime: %.3f ms (resolve %.3f ms, graphs %.3f ms, "
                    "estimate %.3f ms)\n",
                    result.times.total_s * 1e3, result.times.resolve_s * 1e3,
                    result.times.graphs_s * 1e3, result.times.estimate_s * 1e3);

        if (parser.flag("breakdown")) {
            std::printf("\nmodel breakdown:\n");
            std::printf("  B (avg zone area):      %.4f\n", estimate.zone_area_b);
            std::printf("  d_uncongest:            %.3f us\n", estimate.d_uncongest_us);
            std::printf("  L_CNOT^avg (Eq. 2):     %.3f us\n", estimate.l_cnot_avg_us);
            std::printf("  L_1q^avg (2 Tmove):     %.3f us\n", estimate.l_one_qubit_avg_us);
            std::printf("  critical path ops:      %zu (%zu CNOT, %zu one-qubit)\n",
                        estimate.critical_census.total_ops, estimate.critical_cnots,
                        estimate.critical_one_qubit);
            std::printf("  critical gate delay:    %.3f us (no routing)\n",
                        estimate.critical_gate_delay_us);
            std::printf("  covered area sum E[Sq]: %.4f of %lld ULBs\n",
                        estimate.covered_area, params.area());
            std::printf("  E[S_q] / d_q terms (q = 1..%zu):\n", estimate.e_sq.size());
            for (std::size_t i = 0; i < estimate.e_sq.size(); ++i) {
                if (estimate.e_sq[i] < 1e-9 && i > 4) continue; // skip the flat tail
                std::printf("    q=%2zu  E[S_q]=%10.4f  d_q=%10.3f us\n", i + 1,
                            estimate.e_sq[i], estimate.d_q[i]);
            }
        }

        if (parser.option_given("dot")) {
            parser::write_file(parser.option("dot"), entry->qodg().to_dot());
            std::printf("wrote QODG DOT to %s\n", parser.option("dot").c_str());
        }
        if (parser.option_given("json")) {
            parser::write_file(parser.option("json"), report::result_to_json(result));
            std::printf("wrote JSON report to %s\n", parser.option("json").c_str());
        }
    }

    if (parser.flag("cache-stats")) {
        std::printf("cache: %s\n", pipe.cache_stats().to_string().c_str());
    }
    return exit_code;
}

} // namespace

int main(int argc, char** argv) { return leqa::cli::run_main(argc, argv, body); }
