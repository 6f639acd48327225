/// \file wire.h
/// \brief NDJSON wire format for the service boundary: one JSON object per
///        line, id-correlated requests and responses.
///
/// Requests (one per line; unknown top-level keys are ignored, but unknown
/// "params" keys are rejected as InvalidArgument so a typo cannot silently
/// leave a parameter unapplied; ids must be >= 1 and unique among in-flight
/// requests -- 0 is reserved for error responses to lines whose id could
/// not be recovered):
///
///   {"id":1,"op":"estimate","source":"bench:ham3"}
///   {"id":2,"op":"map","source":"circuits/adder.qasm",
///    "params":{"width":50,"height":50,"nc":3,"v":0.002,"topology":"torus"},
///    "priority":5,"deadline_s":2.5,"label":"what-if-50x50"}
///   {"id":3,"op":"both","source":"bench:ham3"}
///   {"id":4,"op":"sweep","source":"bench:ham3","axis":"fabric_sides",
///    "values":[40,50,60]}
///   {"id":5,"op":"calibrate","sources":["bench:ham3"],"apply":true}
///   {"id":6,"op":"cancel","target":2}
///   {"id":7,"op":"stats"}
///   {"id":8,"op":"explore","source":"bench:ham3",
///    "topologies":["grid","torus"],"sides":[40,50,60],"nc":[3,5],
///    "v":[0.001,0.002],"threads":4}
///   {"id":9,"op":"optimize","source":"bench:ham3","moves":5000,"seed":7,
///    "mode":"anneal","params":{"topology":"torus"}}
///
/// Responses (order of completion, correlated by id):
///
///   {"id":1,"result":{...report::result_to_json object...}}
///   {"id":4,"result":{"sweep":{"best_index":1,"points":[...]}}}
///   {"id":8,"result":{"exploration":{"best_index":2,"pareto_front":[...],
///    "points":[...]}}}
///   {"id":2,"error":{"code":"Cancelled","message":"...","origin":"queue"}}
///
/// `parse_request` never throws: malformed lines come back as a non-OK
/// Result (code ParseError / InvalidArgument) so the daemon can answer with
/// an error object instead of dying.  Success payloads embed the exact
/// report::result_to_json document, which keeps server responses
/// bit-identical to what a direct Pipeline::run caller would serialize.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/optimize.h"
#include "fabric/params.h"
#include "pipeline/pipeline.h"
#include "service/service.h"
#include "util/json_value.h"
#include "util/status.h"

namespace leqa::service::wire {

/// Sparse per-request fabric-parameter override; unset fields keep the
/// session defaults.
struct ParamsPatch {
    std::optional<int> width;
    std::optional<int> height;
    std::optional<int> nc;
    std::optional<double> v;
    std::optional<double> t_move_us;
    std::optional<fabric::TopologyKind> topology;

    [[nodiscard]] bool empty() const;
    /// Overlay onto \p base (validation happens inside the job).
    [[nodiscard]] fabric::PhysicalParams apply(fabric::PhysicalParams base) const;

    [[nodiscard]] bool operator==(const ParamsPatch&) const = default;
};

/// One decoded request line.
struct WireRequest {
    enum class Op {
        Estimate,
        Map,
        Both,
        Sweep,
        Calibrate,
        Cancel,
        Stats,
        Explore,
        Optimize
    };

    std::uint64_t id = 0;
    Op op = Op::Estimate;
    std::string source;       ///< estimate/map/both/sweep/explore/optimize
    ParamsPatch params;       ///< estimate/map/both/optimize
    int priority = 0;
    std::optional<double> deadline_s;
    std::string label;
    SweepAxis axis = SweepAxis::FabricSides; ///< sweep
    std::vector<double> values;              ///< sweep (sides / nc / v)
    std::vector<fabric::TopologyKind> kinds; ///< sweep (topology axis)
    std::vector<std::string> sources;        ///< calibrate
    bool apply_calibration = false;          ///< calibrate
    std::uint64_t target = 0;                ///< cancel
    /// Explore cross-product axes + worker threads ("topologies"/"sides"/
    /// "nc"/"v"/"threads" keys; at least one axis must be non-empty).
    core::ExplorationSpec explore;
    /// Optimize budget/seed/schedule ("moves"/"seed"/"mode"/"max_seconds"
    /// keys; unset keys keep the core::OptimizeOptions defaults).
    core::OptimizeOptions optimize;

    [[nodiscard]] bool operator==(const WireRequest&) const = default;
};

[[nodiscard]] const std::string& op_name(WireRequest::Op op);
[[nodiscard]] std::optional<WireRequest::Op> parse_op(const std::string& name);

/// The RunMode of an estimate/map/both op; throws InternalError otherwise.
[[nodiscard]] pipeline::RunMode run_mode_of(WireRequest::Op op);

/// Decode one request line.  Never throws: malformed JSON is a ParseError
/// status, a structurally valid object with bad fields is InvalidArgument
/// (both with origin "wire").
[[nodiscard]] util::Result<WireRequest> parse_request(const std::string& line);

/// Encode a request (only non-default fields); parse_request round-trips it.
[[nodiscard]] std::string serialize_request(const WireRequest& request);

/// Best-effort id recovery from a line parse_request rejected, so the error
/// response can still be correlated; 0 when unrecoverable.
[[nodiscard]] std::uint64_t extract_id(const std::string& line);

/// The one dispatch from a decoded request to a job: enqueue \p request's
/// op (every op but cancel and stats, which the transport answers inline;
/// those throw InternalError).  Priority, deadline and label come from the
/// request; the transport supplies only its backpressure policy (\p nowait,
/// see SubmitOptions::nowait) and \p on_complete.
///
///   - the source spec is parsed inside the job, so a bad spec completes
///     as a NotFound/ParseError status instead of throwing here;
///   - a "params" patch applies to the session parameters at submit time;
///   - a sweep becomes a one-axis `Pipeline::sweep` (sides and Nc must be
///     integral: "sweep axis <name> expects integers, got <v>");
///   - a failure's origin names the op ("sweep", "explore", "optimize",
///     "calibrate"), or the pipeline stage for estimate/map/both runs
///     ("resolve" for an unparsable spec);
///   - an empty label defaults to the source spec (runs, which echo it
///     into the result), "<op>:<source>" ("sweep:<axis>:<source>" for a
///     sweep) or "calibrate".
[[nodiscard]] JobHandle submit(Service& service, const WireRequest& request,
                               bool nowait = false,
                               std::function<void(const JobHandle&)> on_complete = {});

// --- responses -------------------------------------------------------------

/// A completed job as a response line: success embeds the result payload
/// ({...} / {"sweep":...} / {"calibration":...}), failure the error object.
[[nodiscard]] std::string serialize_result(std::uint64_t id, const JobResult& result);

/// An error as a response line: {"id":...,"error":{...}}.
[[nodiscard]] std::string serialize_error(std::uint64_t id, const util::Status& status);

/// Ack of a cancel request: whether the target was still queued.
[[nodiscard]] std::string serialize_cancel_ack(std::uint64_t id, std::uint64_t target,
                                               bool cancelled);

/// Service statistics as a response line.
[[nodiscard]] std::string serialize_stats(std::uint64_t id, const ServiceStats& stats);

/// One decoded response line: OK status iff a result payload is present.
struct WireResponse {
    std::uint64_t id = 0;
    util::Status status;
    util::JsonValue result;
};

/// Decode one response line (the client side; also the round-trip tests).
[[nodiscard]] util::Result<WireResponse> parse_response(const std::string& line);

/// Re-encode a decoded response; textually identical to the line it was
/// parsed from (the wire's lossless round-trip guarantee).
[[nodiscard]] std::string serialize_response(const WireResponse& response);

} // namespace leqa::service::wire
