#include "service/wire.h"

#include <cmath>
#include <limits>
#include <utility>

#include "report/report.h"
#include "util/error.h"
#include "util/json.h"
#include "util/strings.h"

namespace leqa::service::wire {

namespace {

using util::JsonValue;
using util::Status;
using util::StatusCode;

/// Field-level validation failure (mapped to InvalidArgument at the
/// boundary; distinct from malformed JSON which is ParseError).
[[noreturn]] void bad_request(const std::string& what) {
    throw util::InputError("wire request: " + what);
}

/// A JSON integer that must fit an int (fabric dimensions, priorities).
int as_int32(const JsonValue& value, const char* key) {
    const long long parsed = value.as_int();
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max()) {
        bad_request(std::string("\"") + key + "\" out of range");
    }
    return static_cast<int>(parsed);
}

/// JSON numbers are doubles, which are exact only up to 2^53: a larger id
/// would be silently rounded and the response would no longer correlate
/// with the request, so reject it loudly instead.  The cap is 2^53 - 1
/// because 2^53 itself is ambiguous (2^53 + 1 rounds onto it).
constexpr long long kMaxExactId = 9007199254740991LL; // 2^53 - 1

/// Requests must use ids >= 1: 0 is reserved for error responses to lines
/// whose own id could not be recovered (see extract_id), so a response
/// carrying 0 is never ambiguous with real traffic.  parse_response still
/// accepts 0, since the daemon emits exactly such lines.
std::uint64_t parse_id(const JsonValue& root, bool allow_zero = false) {
    const JsonValue* id = root.find("id");
    if (id == nullptr) bad_request("missing \"id\"");
    const long long value = id->as_int();
    if (value < 0 || (value == 0 && !allow_zero)) {
        bad_request("\"id\" must be positive (0 is reserved for responses to "
                    "unidentifiable lines)");
    }
    if (value > kMaxExactId) bad_request("\"id\" exceeds 2^53 - 1");
    return static_cast<std::uint64_t>(value);
}

ParamsPatch parse_params_patch(const JsonValue& object) {
    ParamsPatch patch;
    for (const auto& [key, value] : object.members()) {
        if (key == "width") {
            patch.width = as_int32(value, "width");
        } else if (key == "height") {
            patch.height = as_int32(value, "height");
        } else if (key == "nc") {
            patch.nc = as_int32(value, "nc");
        } else if (key == "v") {
            patch.v = value.as_number();
        } else if (key == "t_move_us") {
            patch.t_move_us = value.as_number();
        } else if (key == "topology") {
            patch.topology = fabric::parse_topology_kind(value.as_string());
        } else {
            bad_request("unknown params key \"" + key + "\"");
        }
    }
    return patch;
}

/// Integral sweep axis values with validation.
std::vector<int> to_int_values(const std::vector<double>& values, const char* axis) {
    std::vector<int> out;
    out.reserve(values.size());
    for (const double value : values) {
        const double rounded = std::nearbyint(value);
        if (rounded != value) {
            throw util::InputError(std::string("sweep axis ") + axis +
                                   " expects integers, got " +
                                   util::format_double(value, 12));
        }
        if (rounded < static_cast<double>(std::numeric_limits<int>::min()) ||
            rounded > static_cast<double>(std::numeric_limits<int>::max())) {
            throw util::InputError(std::string("sweep axis ") + axis +
                                   " value out of range: " +
                                   util::format_double(value, 12));
        }
        out.push_back(static_cast<int>(rounded));
    }
    return out;
}

/// The one-axis exploration a sweep request names.
core::ExplorationSpec sweep_spec(const WireRequest& request) {
    core::ExplorationSpec spec;
    switch (request.axis) {
        case SweepAxis::FabricSides:
            spec.sides = to_int_values(request.values, "fabric_sides");
            break;
        case SweepAxis::ChannelCapacity:
            spec.capacities = to_int_values(request.values, "nc");
            break;
        case SweepAxis::Speed:
            spec.speeds = request.values;
            break;
        case SweepAxis::Topology:
            spec.topologies = request.kinds;
            break;
    }
    return spec;
}

WireRequest parse_request_object(const JsonValue& root) {
    if (!root.is_object()) bad_request("request must be a JSON object");
    WireRequest request;
    request.id = parse_id(root);

    const JsonValue* op = root.find("op");
    if (op == nullptr) bad_request("missing \"op\"");
    const std::optional<WireRequest::Op> parsed_op = parse_op(op->as_string());
    if (!parsed_op.has_value()) bad_request("unknown op \"" + op->as_string() + "\"");
    request.op = *parsed_op;

    if (const JsonValue* priority = root.find("priority")) {
        request.priority = as_int32(*priority, "priority");
    }
    if (const JsonValue* deadline = root.find("deadline_s")) {
        const double seconds = deadline->as_number();
        if (seconds <= 0.0) bad_request("\"deadline_s\" must be positive");
        request.deadline_s = seconds;
    }
    if (const JsonValue* label = root.find("label")) {
        request.label = label->as_string();
    }

    const bool needs_source = request.op == WireRequest::Op::Estimate ||
                              request.op == WireRequest::Op::Map ||
                              request.op == WireRequest::Op::Both ||
                              request.op == WireRequest::Op::Sweep ||
                              request.op == WireRequest::Op::Explore ||
                              request.op == WireRequest::Op::Optimize;
    if (needs_source) {
        const JsonValue* source = root.find("source");
        if (source == nullptr || source->as_string().empty()) {
            bad_request("op \"" + op_name(request.op) + "\" requires a \"source\"");
        }
        request.source = source->as_string();
    }

    switch (request.op) {
        case WireRequest::Op::Estimate:
        case WireRequest::Op::Map:
        case WireRequest::Op::Both:
            if (const JsonValue* params = root.find("params")) {
                request.params = parse_params_patch(*params);
            }
            break;
        case WireRequest::Op::Sweep: {
            const JsonValue* axis = root.find("axis");
            if (axis == nullptr) bad_request("op \"sweep\" requires an \"axis\"");
            const std::optional<SweepAxis> parsed_axis =
                parse_sweep_axis(axis->as_string());
            if (!parsed_axis.has_value()) {
                bad_request("unknown sweep axis \"" + axis->as_string() + "\"");
            }
            request.axis = *parsed_axis;
            if (request.axis == SweepAxis::Topology) {
                const JsonValue* kinds = root.find("kinds");
                if (kinds == nullptr || kinds->items().empty()) {
                    bad_request("topology sweep requires non-empty \"kinds\"");
                }
                for (const JsonValue& kind : kinds->items()) {
                    request.kinds.push_back(
                        fabric::parse_topology_kind(kind.as_string()));
                }
            } else {
                const JsonValue* values = root.find("values");
                if (values == nullptr || values->items().empty()) {
                    bad_request("sweep requires non-empty \"values\"");
                }
                for (const JsonValue& value : values->items()) {
                    request.values.push_back(value.as_number());
                }
            }
            break;
        }
        case WireRequest::Op::Calibrate: {
            const JsonValue* sources = root.find("sources");
            if (sources == nullptr || sources->items().empty()) {
                bad_request("op \"calibrate\" requires non-empty \"sources\"");
            }
            for (const JsonValue& source : sources->items()) {
                request.sources.push_back(source.as_string());
            }
            if (const JsonValue* apply = root.find("apply")) {
                request.apply_calibration = apply->as_bool();
            }
            break;
        }
        case WireRequest::Op::Cancel: {
            const JsonValue* target = root.find("target");
            if (target == nullptr) bad_request("op \"cancel\" requires a \"target\"");
            const long long value = target->as_int();
            if (value < 0) bad_request("\"target\" must be non-negative");
            if (value > kMaxExactId) bad_request("\"target\" exceeds 2^53 - 1");
            request.target = static_cast<std::uint64_t>(value);
            break;
        }
        case WireRequest::Op::Explore: {
            if (const JsonValue* topologies = root.find("topologies")) {
                for (const JsonValue& kind : topologies->items()) {
                    request.explore.topologies.push_back(
                        fabric::parse_topology_kind(kind.as_string()));
                }
            }
            if (const JsonValue* sides = root.find("sides")) {
                for (const JsonValue& side : sides->items()) {
                    request.explore.sides.push_back(as_int32(side, "sides"));
                }
            }
            if (const JsonValue* capacities = root.find("nc")) {
                for (const JsonValue& nc : capacities->items()) {
                    request.explore.capacities.push_back(as_int32(nc, "nc"));
                }
            }
            if (const JsonValue* speeds = root.find("v")) {
                for (const JsonValue& v : speeds->items()) {
                    request.explore.speeds.push_back(v.as_number());
                }
            }
            if (request.explore.topologies.empty() && request.explore.sides.empty() &&
                request.explore.capacities.empty() && request.explore.speeds.empty()) {
                bad_request("op \"explore\" requires at least one non-empty axis "
                            "(\"topologies\"/\"sides\"/\"nc\"/\"v\")");
            }
            if (const JsonValue* threads = root.find("threads")) {
                const int parsed = as_int32(*threads, "threads");
                // Bounded like every other wire integer: one hostile line
                // must not make the daemon spawn an arbitrary thread count
                // (0 = hardware concurrency remains the "as parallel as the
                // box allows" spelling).
                constexpr int kMaxExploreThreads = 256;
                if (parsed < 0 || parsed > kMaxExploreThreads) {
                    bad_request("\"threads\" must be in [0, " +
                                std::to_string(kMaxExploreThreads) + "]");
                }
                request.explore.threads = static_cast<std::size_t>(parsed);
            }
            break;
        }
        case WireRequest::Op::Optimize: {
            if (const JsonValue* params = root.find("params")) {
                request.params = parse_params_patch(*params);
            }
            if (const JsonValue* moves = root.find("moves")) {
                const long long parsed = moves->as_int();
                // Bounded like "threads": one hostile line must not buy an
                // effectively unbounded annealing run on a worker thread.
                constexpr long long kMaxOptimizeMoves = 10000000;
                if (parsed < 1 || parsed > kMaxOptimizeMoves) {
                    bad_request("\"moves\" must be in [1, " +
                                std::to_string(kMaxOptimizeMoves) + "]");
                }
                request.optimize.max_moves = static_cast<std::size_t>(parsed);
            }
            if (const JsonValue* seed = root.find("seed")) {
                const long long parsed = seed->as_int();
                if (parsed < 0) bad_request("\"seed\" must be non-negative");
                request.optimize.seed = static_cast<std::uint64_t>(parsed);
            }
            if (const JsonValue* mode = root.find("mode")) {
                // parse_optimize_mode throws InputError for unknown names,
                // which maps to InvalidArgument at this boundary.
                request.optimize.mode = core::parse_optimize_mode(mode->as_string());
            }
            if (const JsonValue* seconds = root.find("max_seconds")) {
                const double parsed = seconds->as_number();
                if (parsed < 0.0) bad_request("\"max_seconds\" must be non-negative");
                request.optimize.max_seconds = parsed;
            }
            break;
        }
        case WireRequest::Op::Stats:
            break;
    }
    return request;
}

} // namespace

// ----------------------------------------------------------- ParamsPatch --

bool ParamsPatch::empty() const {
    return !width.has_value() && !height.has_value() && !nc.has_value() &&
           !v.has_value() && !t_move_us.has_value() && !topology.has_value();
}

fabric::PhysicalParams ParamsPatch::apply(fabric::PhysicalParams base) const {
    if (width.has_value()) base.width = *width;
    if (height.has_value()) base.height = *height;
    if (nc.has_value()) base.nc = *nc;
    if (v.has_value()) base.v = *v;
    if (t_move_us.has_value()) base.t_move_us = *t_move_us;
    if (topology.has_value()) base.topology = *topology;
    return base;
}

// ------------------------------------------------------------------- ops --

const std::string& op_name(WireRequest::Op op) {
    static const std::string names[] = {"estimate", "map",     "both",
                                        "sweep",    "calibrate", "cancel",
                                        "stats",    "explore", "optimize"};
    return names[static_cast<std::size_t>(op)];
}

std::optional<WireRequest::Op> parse_op(const std::string& name) {
    for (const auto op :
         {WireRequest::Op::Estimate, WireRequest::Op::Map, WireRequest::Op::Both,
          WireRequest::Op::Sweep, WireRequest::Op::Calibrate, WireRequest::Op::Cancel,
          WireRequest::Op::Stats, WireRequest::Op::Explore,
          WireRequest::Op::Optimize}) {
        if (op_name(op) == name) return op;
    }
    return std::nullopt;
}

pipeline::RunMode run_mode_of(WireRequest::Op op) {
    switch (op) {
        case WireRequest::Op::Estimate: return pipeline::RunMode::Estimate;
        case WireRequest::Op::Map: return pipeline::RunMode::Map;
        case WireRequest::Op::Both: return pipeline::RunMode::Both;
        default: break;
    }
    throw util::InternalError("run_mode_of: op \"" + op_name(op) + "\" is not a run");
}

// -------------------------------------------------------------- requests --

util::Result<WireRequest> parse_request(const std::string& line) {
    try {
        return parse_request_object(util::json_parse(line));
    } catch (...) {
        return util::status_from_exception(std::current_exception(), "wire");
    }
}

std::string serialize_request(const WireRequest& request) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("id", request.id);
    json.kv("op", op_name(request.op));
    if (!request.source.empty()) json.kv("source", request.source);
    if (!request.params.empty()) {
        json.key("params").begin_object();
        if (request.params.width) json.kv("width", static_cast<long long>(*request.params.width));
        if (request.params.height) json.kv("height", static_cast<long long>(*request.params.height));
        if (request.params.nc) json.kv("nc", static_cast<long long>(*request.params.nc));
        if (request.params.v) json.kv("v", *request.params.v);
        if (request.params.t_move_us) json.kv("t_move_us", *request.params.t_move_us);
        if (request.params.topology) {
            json.kv("topology", fabric::topology_kind_name(*request.params.topology));
        }
        json.end_object();
    }
    if (request.priority != 0) json.kv("priority", static_cast<long long>(request.priority));
    if (request.deadline_s.has_value()) json.kv("deadline_s", *request.deadline_s);
    if (!request.label.empty()) json.kv("label", request.label);
    if (request.op == WireRequest::Op::Sweep) {
        json.kv("axis", sweep_axis_name(request.axis));
        if (request.axis == SweepAxis::Topology) {
            json.key("kinds").begin_array();
            for (const auto kind : request.kinds) {
                json.value(fabric::topology_kind_name(kind));
            }
            json.end_array();
        } else {
            json.key("values").begin_array();
            for (const double value : request.values) json.value(value);
            json.end_array();
        }
    }
    if (request.op == WireRequest::Op::Calibrate) {
        json.key("sources").begin_array();
        for (const std::string& source : request.sources) json.value(source);
        json.end_array();
        if (request.apply_calibration) json.kv("apply", true);
    }
    if (request.op == WireRequest::Op::Cancel) json.kv("target", request.target);
    if (request.op == WireRequest::Op::Optimize) {
        const core::OptimizeOptions defaults;
        if (request.optimize.max_moves != defaults.max_moves) {
            json.kv("moves", static_cast<long long>(request.optimize.max_moves));
        }
        if (request.optimize.seed != defaults.seed) {
            json.kv("seed", request.optimize.seed);
        }
        if (request.optimize.mode != defaults.mode) {
            json.kv("mode", core::optimize_mode_name(request.optimize.mode));
        }
        if (request.optimize.max_seconds != defaults.max_seconds) {
            json.kv("max_seconds", request.optimize.max_seconds);
        }
    }
    if (request.op == WireRequest::Op::Explore) {
        if (!request.explore.topologies.empty()) {
            json.key("topologies").begin_array();
            for (const auto kind : request.explore.topologies) {
                json.value(fabric::topology_kind_name(kind));
            }
            json.end_array();
        }
        if (!request.explore.sides.empty()) {
            json.key("sides").begin_array();
            for (const int side : request.explore.sides) {
                json.value(static_cast<long long>(side));
            }
            json.end_array();
        }
        if (!request.explore.capacities.empty()) {
            json.key("nc").begin_array();
            for (const int nc : request.explore.capacities) {
                json.value(static_cast<long long>(nc));
            }
            json.end_array();
        }
        if (!request.explore.speeds.empty()) {
            json.key("v").begin_array();
            for (const double v : request.explore.speeds) json.value(v);
            json.end_array();
        }
        if (request.explore.threads != 1) {
            json.kv("threads", request.explore.threads);
        }
    }
    json.end_object();
    return json.str();
}

std::uint64_t extract_id(const std::string& line) {
    try {
        const JsonValue root = util::json_parse(line);
        const JsonValue* id = root.find("id");
        if (id == nullptr) return 0;
        const long long value = id->as_int();
        // Out-of-range ids are unidentifiable: a rounded echo would
        // correlate with the wrong request.
        return value >= 1 && value <= kMaxExactId
                   ? static_cast<std::uint64_t>(value)
                   : 0;
    } catch (...) {
        return 0;
    }
}

// -------------------------------------------------------------- dispatch --

JobHandle submit(Service& service, const WireRequest& request, bool nowait,
                 std::function<void(const JobHandle&)> on_complete) {
    SubmitOptions options;
    options.priority = request.priority;
    options.deadline_s = request.deadline_s;
    options.label = request.label;
    options.nowait = nowait;
    options.on_complete = std::move(on_complete);
    std::optional<fabric::PhysicalParams> params;
    if (!request.params.empty()) {
        params = request.params.apply(service.pipeline().config().params);
    }

    const char* origin = nullptr; // the Status origin of a body that throws
    JobFn body;
    switch (request.op) {
        case WireRequest::Op::Estimate:
        case WireRequest::Op::Map:
        case WireRequest::Op::Both:
            // The label is echoed into the result document.
            if (options.label.empty()) options.label = request.source;
            origin = "resolve"; // run_result names the stage of any later failure
            body = [request, params, label = options.label](
                       pipeline::Pipeline& pipe,
                       const pipeline::RunControl& control) -> JobResult {
                pipeline::EstimationRequest run(pipeline::parse_source(request.source),
                                                run_mode_of(request.op));
                run.params = params;
                run.label = label;
                util::Result<pipeline::EstimationResult> result =
                    pipe.run_result(run, &control);
                if (!result.ok()) return result.status();
                return JobOutput{std::move(result).value()};
            };
            break;
        case WireRequest::Op::Sweep:
            if (options.label.empty()) {
                options.label =
                    "sweep:" + sweep_axis_name(request.axis) + ":" + request.source;
            }
            origin = "sweep";
            body = [request](pipeline::Pipeline& pipe,
                             const pipeline::RunControl& control) -> JobResult {
                control.checkpoint("sweep");
                // Source before axis values: an unknown bench outranks a
                // non-integral side.
                const pipeline::CircuitSource source =
                    pipeline::parse_source(request.source);
                return JobOutput{pipe.sweep(source, sweep_spec(request), &control)};
            };
            break;
        case WireRequest::Op::Explore:
            if (options.label.empty()) options.label = "explore:" + request.source;
            origin = "explore";
            body = [request](pipeline::Pipeline& pipe,
                             const pipeline::RunControl& control) -> JobResult {
                control.checkpoint("explore");
                return JobOutput{pipe.explore(pipeline::parse_source(request.source),
                                              request.explore, &control)};
            };
            break;
        case WireRequest::Op::Optimize:
            if (options.label.empty()) options.label = "optimize:" + request.source;
            origin = "optimize";
            body = [request, params](pipeline::Pipeline& pipe,
                                     const pipeline::RunControl& control) -> JobResult {
                control.checkpoint("optimize");
                return JobOutput{pipe.optimize(pipeline::parse_source(request.source),
                                               request.optimize, params, &control)};
            };
            break;
        case WireRequest::Op::Calibrate:
            if (options.label.empty()) options.label = "calibrate";
            origin = "calibrate";
            body = [request](pipeline::Pipeline& pipe,
                             const pipeline::RunControl& control) -> JobResult {
                control.checkpoint("calibrate");
                std::vector<pipeline::CircuitSource> sources;
                sources.reserve(request.sources.size());
                for (const std::string& spec : request.sources) {
                    sources.push_back(pipeline::parse_source(spec));
                }
                core::CalibrationResult fit = pipe.calibrate(sources, &control);
                if (request.apply_calibration) pipe.apply_calibration(fit);
                return JobOutput{fit};
            };
            break;
        case WireRequest::Op::Cancel:
        case WireRequest::Op::Stats:
            throw util::InternalError("wire::submit: op \"" + op_name(request.op) +
                                      "\" is answered inline, not as a job");
    }
    return service.submit_fn(
        [origin, body = std::move(body)](pipeline::Pipeline& pipe,
                                         const pipeline::RunControl& control) -> JobResult {
            try {
                return body(pipe, control);
            } catch (...) {
                return util::status_from_exception(std::current_exception(), origin);
            }
        },
        std::move(options));
}

// ------------------------------------------------------------- responses --

std::string serialize_result(std::uint64_t id, const JobResult& result) {
    if (!result.ok()) return serialize_error(id, result.status());
    util::JsonWriter json;
    json.begin_object();
    json.kv("id", id);
    json.key("result");
    if (const auto* run = std::get_if<pipeline::EstimationResult>(&result.value())) {
        // The exact document a direct Pipeline::run caller would serialize.
        json.raw_value(report::result_to_json(*run));
    } else if (const auto* sweep = std::get_if<core::SweepResult>(&result.value())) {
        json.begin_object();
        json.key("sweep").raw_value(report::sweep_to_json(*sweep));
        json.end_object();
    } else if (const auto* exploration =
                   std::get_if<core::ExplorationResult>(&result.value())) {
        json.begin_object();
        json.key("exploration").raw_value(report::exploration_to_json(*exploration));
        json.end_object();
    } else if (const auto* optimized =
                   std::get_if<core::OptimizeResult>(&result.value())) {
        json.begin_object();
        json.key("optimize").raw_value(report::optimize_to_json(*optimized));
        json.end_object();
    } else {
        const auto& fit = std::get<core::CalibrationResult>(result.value());
        json.begin_object();
        json.key("calibration").raw_value(report::calibration_to_json(fit));
        json.end_object();
    }
    json.end_object();
    return json.str();
}

std::string serialize_error(std::uint64_t id, const util::Status& status) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("id", id);
    json.key("error").raw_value(report::status_to_json(status));
    json.end_object();
    return json.str();
}

std::string serialize_cancel_ack(std::uint64_t id, std::uint64_t target,
                                 bool cancelled) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("id", id);
    json.key("result").begin_object();
    json.kv("target", target);
    json.kv("cancelled", cancelled);
    json.end_object();
    json.end_object();
    return json.str();
}

std::string serialize_stats(std::uint64_t id, const ServiceStats& stats) {
    const auto write_summary = [](util::JsonWriter& json, const LatencySummary& summary) {
        json.begin_object();
        json.kv("count", summary.count);
        json.kv("p50_s", summary.p50_s);
        json.kv("p90_s", summary.p90_s);
        json.kv("p99_s", summary.p99_s);
        json.kv("p999_s", summary.p999_s);
        json.kv("max_s", summary.max_s);
        json.end_object();
    };
    util::JsonWriter json;
    json.begin_object();
    json.kv("id", id);
    json.key("result").begin_object();
    json.key("stats").begin_object();
    json.kv("submitted", stats.submitted);
    json.kv("completed", stats.completed);
    json.kv("succeeded", stats.succeeded);
    json.kv("failed", stats.failed);
    json.kv("cancelled", stats.cancelled);
    json.kv("deadline_expired", stats.deadline_expired);
    json.kv("rejected", stats.rejected);
    json.kv("queue_depth", stats.queue_depth);
    json.kv("running", stats.running);
    json.kv("peak_queue_depth", stats.peak_queue_depth);
    json.key("queue_wait");
    write_summary(json, stats.queue_wait);
    json.key("service_time");
    write_summary(json, stats.service_time);
    json.key("cache").begin_object();
    json.kv("circuit_hits", stats.cache.circuit_hits);
    json.kv("circuit_misses", stats.cache.circuit_misses);
    json.kv("graph_hits", stats.cache.graph_hits);
    json.kv("graph_misses", stats.cache.graph_misses);
    json.kv("evictions", stats.cache.evictions);
    json.kv("surface_hits", stats.cache.surface_hits);
    json.kv("surface_recomputes", stats.cache.surface_recomputes);
    json.kv("surface_evictions", stats.cache.surface_evictions);
    json.end_object();
    json.end_object();
    json.end_object();
    json.end_object();
    return json.str();
}

util::Result<WireResponse> parse_response(const std::string& line) {
    try {
        JsonValue root = util::json_parse(line);
        if (!root.is_object()) bad_request("response must be a JSON object");
        WireResponse response;
        response.id = parse_id(root, /*allow_zero=*/true);
        if (const JsonValue* error = root.find("error")) {
            const std::optional<StatusCode> code =
                util::parse_status_code(error->at("code").as_string());
            if (!code.has_value()) {
                bad_request("unknown status code \"" + error->at("code").as_string() +
                            "\"");
            }
            const JsonValue* origin = error->find("origin");
            response.status = Status(*code, error->at("message").as_string(),
                                     origin != nullptr ? origin->as_string() : "");
            if (response.status.ok()) bad_request("error object with code Ok");
        } else if (const JsonValue* result = root.find("result")) {
            response.result = *result;
        } else {
            bad_request("response carries neither \"result\" nor \"error\"");
        }
        return response;
    } catch (...) {
        return util::status_from_exception(std::current_exception(), "wire");
    }
}

std::string serialize_response(const WireResponse& response) {
    util::JsonWriter json;
    json.begin_object();
    json.kv("id", response.id);
    if (response.status.ok()) {
        json.key("result").raw_value(response.result.dump());
    } else {
        json.key("error").raw_value(report::status_to_json(response.status));
    }
    json.end_object();
    return json.str();
}

} // namespace leqa::service::wire
