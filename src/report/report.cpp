#include "report/report.h"

#include <sstream>

#include "util/error.h"
#include "util/json.h"

namespace leqa::report {

void write_params_json(util::JsonWriter& json, const fabric::PhysicalParams& params) {
    json.key("fabric").begin_object();
    json.kv("topology", fabric::topology_kind_name(params.topology));
    json.kv("width", static_cast<long long>(params.width));
    json.kv("height", static_cast<long long>(params.height));
    json.kv("nc", static_cast<long long>(params.nc));
    json.kv("v", params.v);
    json.kv("t_move_us", params.t_move_us);
    json.key("gate_delays_us").begin_object();
    json.kv("h", params.d_h_us);
    json.kv("t", params.d_t_us);
    json.kv("pauli", params.d_pauli_us);
    json.kv("s", params.d_s_us);
    json.kv("cnot", params.d_cnot_us);
    json.end_object();
    json.end_object();
}

namespace {

void write_census(util::JsonWriter& json, const qodg::PathCensus& census) {
    json.begin_object();
    for (std::size_t k = 0; k < circuit::kGateKindCount; ++k) {
        if (census.by_kind[k] == 0) continue;
        json.kv(circuit::gate_name(static_cast<circuit::GateKind>(k)),
                census.by_kind[k]);
    }
    json.kv("total", census.total_ops);
    json.end_object();
}

/// The estimator's model/critical-path/latency fields (shared between the
/// standalone estimate document and the pipeline result documents).
void write_estimate_body(util::JsonWriter& json, const core::LeqaEstimate& estimate) {
    json.key("model").begin_object();
    json.kv("zone_area_b", estimate.zone_area_b);
    json.kv("d_uncongest_us", estimate.d_uncongest_us);
    json.kv("l_cnot_avg_us", estimate.l_cnot_avg_us);
    json.kv("l_one_qubit_avg_us", estimate.l_one_qubit_avg_us);
    json.kv("covered_area", estimate.covered_area);
    json.key("e_sq").begin_array();
    for (const double value : estimate.e_sq) json.value(value);
    json.end_array();
    json.key("d_q_us").begin_array();
    for (const double value : estimate.d_q) json.value(value);
    json.end_array();
    json.end_object();

    json.key("critical_path").begin_object();
    json.kv("cnots", estimate.critical_cnots);
    json.kv("one_qubit_ops", estimate.critical_one_qubit);
    json.kv("gate_delay_us", estimate.critical_gate_delay_us);
    json.key("census");
    write_census(json, estimate.critical_census);
    json.end_object();

    json.kv("latency_us", estimate.latency_us);
    json.kv("latency_s", estimate.latency_seconds());
}

/// The mapper's latency/stats fields (shared, as above).
void write_qspr_body(util::JsonWriter& json, const qspr::QsprResult& result) {
    json.kv("latency_us", result.latency_us);
    json.kv("latency_s", result.latency_us * 1e-6);
    json.key("stats").begin_object();
    json.kv("one_qubit_ops", result.stats.one_qubit_ops);
    json.kv("cnot_ops", result.stats.cnot_ops);
    json.kv("total_hops", result.stats.total_hops);
    json.kv("evictions", result.stats.evictions);
    json.kv("relocations", result.stats.relocations);
    json.kv("total_route_us", result.stats.total_route_us);
    json.key("channels").begin_object();
    json.kv("reservations", result.stats.channels.reservations);
    json.kv("delayed_hops", result.stats.channels.delayed_hops);
    json.kv("total_wait_us", result.stats.channels.total_wait_us);
    json.kv("max_occupancy", static_cast<long long>(result.stats.channels.max_occupancy));
    json.end_object();
    json.end_object();
    json.kv("scheduled_ops", result.schedule.size());
}

/// One pipeline result as an object (no document framing).
void write_result_object(util::JsonWriter& json,
                         const pipeline::EstimationResult& result) {
    json.begin_object();
    json.kv("label", result.label);

    json.key("circuit").begin_object();
    json.kv("name", result.circuit.name);
    json.kv("cache_key", result.circuit.cache_key);
    json.kv("pre_ft_gates", result.circuit.pre_ft_gates);
    json.kv("qubits", result.circuit.qubits);
    json.kv("ft_ops", result.circuit.ft_ops);
    json.kv("synthesized", result.circuit.synthesized);
    json.end_object();

    write_params_json(json, result.params);

    json.key("stage_times_s").begin_object();
    json.kv("resolve", result.times.resolve_s);
    json.kv("graphs", result.times.graphs_s);
    json.kv("estimate", result.times.estimate_s);
    json.kv("map", result.times.map_s);
    json.kv("total", result.times.total_s);
    json.end_object();

    json.key("estimate");
    if (result.estimate.has_value()) {
        json.begin_object();
        write_estimate_body(json, *result.estimate);
        json.end_object();
    } else {
        json.null();
    }

    json.key("mapping");
    if (result.mapping.has_value()) {
        json.begin_object();
        write_qspr_body(json, *result.mapping);
        json.end_object();
    } else {
        json.null();
    }
    json.end_object();
}

} // namespace

std::string qspr_result_to_json(const qspr::QsprResult& result,
                                const fabric::PhysicalParams& params,
                                const std::string& circuit_name) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("tool", "qspr");
    json.kv("circuit", circuit_name);
    write_params_json(json, params);
    write_qspr_body(json, result);
    json.end_object();
    return json.str();
}

std::string schedule_to_csv(const qspr::QsprResult& result, const circuit::Circuit& circ) {
    LEQA_REQUIRE(!result.schedule.empty(),
                 "schedule_to_csv: run the mapper with collect_schedule = true");
    std::ostringstream out;
    out << "gate_index,gate,start_us,finish_us,ulb\n";
    for (const qspr::ScheduledOp& op : result.schedule) {
        LEQA_REQUIRE(op.gate_index < circ.size(), "schedule references unknown gate");
        out << op.gate_index << ','
            << circuit::gate_name(circ.gate(op.gate_index).kind) << ','
            << op.start_us << ',' << op.finish_us << ',' << op.ulb << '\n';
    }
    return out.str();
}

std::string result_to_json(const pipeline::EstimationResult& result) {
    util::JsonWriter json;
    write_result_object(json, result);
    return json.str();
}

std::string status_to_json(const util::Status& status) {
    LEQA_REQUIRE(!status.ok(), "status_to_json: OK statuses have no error object");
    util::JsonWriter json;
    json.begin_object();
    json.kv("code", util::status_code_name(status.code()));
    json.kv("message", status.message());
    if (!status.origin().empty()) json.kv("origin", status.origin());
    json.end_object();
    return json.str();
}

std::string batch_results_to_json(
    const std::vector<util::Result<pipeline::EstimationResult>>& outcomes,
    const std::vector<std::string>& labels) {
    std::size_t failed = 0;
    for (const auto& outcome : outcomes) {
        if (!outcome.ok()) ++failed;
    }
    util::JsonWriter json;
    json.begin_object();
    json.kv("tool", "leqa-pipeline");
    json.kv("count", outcomes.size());
    json.kv("failed", failed);
    json.key("results").begin_array();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const auto& outcome = outcomes[i];
        if (outcome.ok()) {
            write_result_object(json, outcome.value());
        } else {
            // Failed slots carry their input label too: without it the
            // report could not say *which* request the error belongs to.
            json.begin_object();
            if (i < labels.size()) json.kv("label", labels[i]);
            json.key("error").raw_value(status_to_json(outcome.status()));
            json.end_object();
        }
    }
    json.end_array();
    json.end_object();
    return json.str();
}

namespace {

void write_sweep_points(util::JsonWriter& json,
                        const std::vector<core::SweepPoint>& points) {
    json.key("points").begin_array();
    for (const core::SweepPoint& point : points) {
        json.begin_object();
        write_params_json(json, point.params);
        json.kv("latency_us", point.estimate.latency_us);
        json.kv("latency_s", point.estimate.latency_seconds());
        json.end_object();
    }
    json.end_array();
}

} // namespace

std::string sweep_to_json(const core::SweepResult& sweep) {
    util::JsonWriter json;
    json.begin_object();
    if (sweep.has_best()) json.kv("best_index", sweep.best_index);
    if (sweep.non_finite_points > 0) {
        json.kv("non_finite_points", sweep.non_finite_points);
    }
    write_sweep_points(json, sweep.points);
    json.end_object();
    return json.str();
}

std::string exploration_to_json(const core::ExplorationResult& exploration) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("points_total", exploration.points.size());
    json.kv("threads_used", exploration.threads_used);
    if (exploration.has_best()) json.kv("best_index", exploration.best_index);
    if (exploration.non_finite_points > 0) {
        json.kv("non_finite_points", exploration.non_finite_points);
    }
    json.key("best_per_topology").begin_array();
    for (const core::TopologyBest& best : exploration.best_per_topology) {
        json.begin_object();
        json.kv("topology", fabric::topology_kind_name(best.kind));
        json.kv("index", best.index);
        json.kv("latency_us",
                exploration.points[best.index].estimate.latency_us);
        json.end_object();
    }
    json.end_array();
    json.key("pareto_front").begin_array();
    for (const std::size_t index : exploration.pareto_front) {
        const core::SweepPoint& point = exploration.points[index];
        json.begin_object();
        json.kv("index", index);
        json.kv("area", point.params.area());
        json.kv("latency_us", point.estimate.latency_us);
        json.end_object();
    }
    json.end_array();
    write_sweep_points(json, exploration.points);
    json.end_object();
    return json.str();
}

std::string calibration_to_json(const core::CalibrationResult& result) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("v", result.v);
    json.kv("mean_abs_rel_error", result.mean_abs_rel_error);
    json.kv("evaluations", result.evaluations);
    json.end_object();
    return json.str();
}

std::string optimize_to_json(const core::OptimizeResult& result) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("initial_latency_us", result.initial_latency_us);
    json.kv("final_latency_us", result.final_latency_us);
    json.kv("improved", result.improved);
    const double pct =
        result.initial_latency_us > 0.0
            ? 100.0 * (result.initial_latency_us - result.final_latency_us) /
                  result.initial_latency_us
            : 0.0;
    json.kv("improvement_pct", pct);
    json.key("moves").begin_object();
    json.kv("attempted", result.moves_attempted);
    json.kv("accepted", result.moves_accepted);
    json.kv("fast_rejected", result.moves_fast_rejected);
    json.end_object();
    json.kv("nodes_retimed", result.nodes_retimed);
    json.kv("seconds", result.seconds);
    json.key("homes").begin_array();
    for (const fabric::UlbId home : result.homes) {
        json.value(static_cast<long long>(home));
    }
    json.end_array();
    json.end_object();
    return json.str();
}

} // namespace leqa::report
