/// \file fuzz_wire.cpp
/// \brief Wire request codec + in-process Service round trip.
///
/// The deepest untrusted surface: a request line crosses `parse_request`
/// (must *never* throw — the daemon answers errors, it does not die), then
/// a decoded request drives the real async `Service`, and the response line
/// must survive `parse_response`.  Three layers of contract:
///
///   - codec totality: `parse_request` / `parse_response` on arbitrary
///     bytes return a Result, never throw, never crash;
///   - codec fixed point: for a request that parsed,
///     `serialize_request -> parse_request -> serialize_request` reproduces
///     the identical string (string-level, for the same reason as
///     fuzz_json: 12-digit number formatting makes text the exact grid);
///   - service totality: the decoded request — clamped to a small fabric /
///     tiny budgets so hostile numerals cannot buy unbounded compute, with
///     the source pinned to "bench:ham3" so there is no file-system
///     dependence — submits through the daemon's `wire::submit`, completes,
///     and its serialized result parses back as a response.  No exception
///     may escape the Service boundary.
#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>

#include "fuzz_common.h"
#include "service/service.h"
#include "service/wire.h"
#include "util/error.h"

namespace {

using leqa::service::Service;
using leqa::service::ServiceOptions;
namespace wire = leqa::service::wire;

template <typename T>
void clamp_opt(std::optional<T>& field, T lo, T hi) {
    if (!field) return;
    if (!(*field >= lo)) *field = lo; // also catches NaN
    if (*field > hi) *field = hi;
}

/// Bound the compute a decoded request can buy.  Correctness of *handling*
/// is what is under test, not throughput: a clamped request exercises the
/// same dispatch, queueing, and serialization paths at a fixed small cost.
void clamp_request(wire::WireRequest& request) {
    request.source = "bench:ham3";
    clamp_opt(request.params.width, 1, 12);
    clamp_opt(request.params.height, 1, 12);
    clamp_opt(request.params.nc, 1, 6);
    clamp_opt(request.params.v, 1e-4, 0.1);
    clamp_opt(request.params.t_move_us, 1.0, 1000.0);
    request.deadline_s.reset(); // wall-clock dependence breaks reproducibility

    request.values.resize(std::min<std::size_t>(request.values.size(), 3));
    for (double& v : request.values) {
        if (!(v >= 1e-4)) v = 1e-4;
        if (v > 12.0) v = 12.0;
    }
    request.kinds.resize(std::min<std::size_t>(request.kinds.size(), 3));

    auto& spec = request.explore;
    spec.topologies.resize(std::min<std::size_t>(spec.topologies.size(), 2));
    spec.sides.resize(std::min<std::size_t>(spec.sides.size(), 2));
    for (int& s : spec.sides) s = std::clamp(s, 4, 10);
    spec.capacities.resize(std::min<std::size_t>(spec.capacities.size(), 2));
    for (int& c : spec.capacities) c = std::clamp(c, 1, 6);
    spec.speeds.resize(std::min<std::size_t>(spec.speeds.size(), 2));
    for (double& v : spec.speeds) {
        if (!(v >= 1e-4)) v = 1e-4;
        if (v > 0.1) v = 0.1;
    }
    spec.threads = std::min<std::size_t>(std::max<std::size_t>(spec.threads, 1), 2);

    auto& opt = request.optimize;
    opt.max_moves = std::min<std::size_t>(std::max<std::size_t>(opt.max_moves, 1), 128);
    opt.max_seconds = 0.0;

    request.sources.resize(std::min<std::size_t>(request.sources.size(), 2));
    for (std::string& s : request.sources) s = "bench:ham3";
    // One input must not retune the session every later input runs on.
    request.apply_calibration = false;
}

Service& shared_service() {
    static Service service(leqa::pipeline::PipelineConfig{},
                           ServiceOptions{/*threads=*/1, /*max_queue=*/64});
    return service;
}

/// Run the clamped request to completion through the daemon's own dispatch
/// (`wire::submit`) and return its response line.  Cancel and stats are
/// the ops a session answers inline; with no per-client job table here, a
/// cancel never finds its target.
std::string run_request(const wire::WireRequest& request) {
    Service& service = shared_service();
    if (request.op == wire::WireRequest::Op::Cancel) {
        return wire::serialize_cancel_ack(request.id, request.target,
                                          /*cancelled=*/false);
    }
    if (request.op == wire::WireRequest::Op::Stats) {
        return wire::serialize_stats(request.id, service.stats());
    }
    return wire::serialize_result(request.id, wire::submit(service, request).wait());
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    leqa_fuzz::install_abort_handler();
    if (size > 4096) return 0; // parse cost is linear; bigger buys no coverage
    const std::string line(reinterpret_cast<const char*>(data), size);

    // Totality: both direction codecs accept arbitrary bytes.
    std::optional<leqa::util::Result<wire::WireRequest>> parsed;
    try {
        parsed = wire::parse_request(line);
        (void)wire::parse_response(line);
        (void)wire::extract_id(line);
    } catch (...) {
        FUZZ_REQUIRE(false, "the wire codec threw on raw input");
    }
    if (!parsed->ok()) return 0;

    // Codec fixed point on the decoded request.
    const std::string first = wire::serialize_request(parsed->value());
    const leqa::util::Result<wire::WireRequest> reparsed = wire::parse_request(first);
    FUZZ_REQUIRE(reparsed.ok(), ("serialize_request emitted a line parse_request "
                                 "rejects: " + first)
                                    .c_str());
    FUZZ_REQUIRE(wire::serialize_request(reparsed.value()) == first,
                 "serialize_request -> parse_request is not a fixed point");

    // Service round trip on the clamped request.
    wire::WireRequest request = parsed->value();
    clamp_request(request);
    std::string response_line;
    try {
        response_line = run_request(request);
    } catch (...) {
        FUZZ_REQUIRE(false, "an exception escaped the Service boundary");
    }
    FUZZ_REQUIRE(!response_line.empty(), "request produced no response line");
    const leqa::util::Result<wire::WireResponse> response =
        wire::parse_response(response_line);
    FUZZ_REQUIRE(response.ok(), ("service response line fails parse_response: " +
                                 response_line)
                                    .c_str());
    FUZZ_REQUIRE(wire::serialize_response(response.value()) == response_line,
                 "serialize_response -> parse_response is not a fixed point");
    return 0;
}
