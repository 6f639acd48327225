/// \file report.h
/// \brief Machine-readable reports: JSON for estimates and mapping results,
///        CSV for detailed schedules.
///
/// Downstream tooling (plotting scripts, regression dashboards, the QECC
/// exploration loop of the paper's introduction) consumes these rather
/// than scraping console tables.
#pragma once

#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "core/calibrate.h"
#include "core/explore.h"
#include "core/leqa.h"
#include "core/optimize.h"
#include "core/sweep.h"
#include "fabric/params.h"
#include "pipeline/pipeline.h"
#include "qspr/qspr.h"
#include "util/json.h"
#include "util/status.h"

namespace leqa::report {

/// Write the fabric-parameter object (the "fabric" key) into an open JSON
/// object.  Shared by every document in this module and by service::wire.
void write_params_json(util::JsonWriter& json, const fabric::PhysicalParams& params);

/// QSPR mapping result as JSON (latency + mapper statistics).
[[nodiscard]] std::string qspr_result_to_json(const qspr::QsprResult& result,
                                              const fabric::PhysicalParams& params,
                                              const std::string& circuit_name);

/// Detailed schedule as CSV: gate_index, mnemonic, start_us, finish_us, ulb.
/// Requires the result to have been produced with collect_schedule = true.
[[nodiscard]] std::string schedule_to_csv(const qspr::QsprResult& result,
                                          const circuit::Circuit& circ);

/// One pipeline result as a JSON document: circuit identity/stats, the
/// parameters used, per-stage wall times, and whichever of the LEQA
/// estimate / QSPR mapping the request produced.
[[nodiscard]] std::string result_to_json(const pipeline::EstimationResult& result);

/// A non-OK Status as {"code": "...", "message": "...", "origin": "..."}
/// (origin omitted when empty) -- the error object of the wire format.
[[nodiscard]] std::string status_to_json(const util::Status& status);

/// A per-request batch outcome document: each entry is either the result
/// object or {"label": ..., "error": {...}}; {"tool": "leqa-pipeline",
/// "failed": N}.  \p labels names each slot's input (same indexing as
/// \p outcomes) so failed entries stay attributable; pass empty to omit.
[[nodiscard]] std::string batch_results_to_json(
    const std::vector<util::Result<pipeline::EstimationResult>>& outcomes,
    const std::vector<std::string>& labels = {});

/// A design-space sweep as JSON: per-point parameters + latency and the
/// index of the latency-minimal point ("best_index" is omitted when no
/// point has a finite latency; "non_finite_points" appears when > 0).
[[nodiscard]] std::string sweep_to_json(const core::SweepResult& sweep);

/// A multi-dimensional exploration as JSON: every cross-product point, the
/// global best, the per-topology bests, and the latency/fabric-area Pareto
/// front (each front entry carries its point index, area, and latency).
[[nodiscard]] std::string exploration_to_json(
    const core::ExplorationResult& exploration);

/// A calibration fit as JSON (v, error at v, evaluations spent).
[[nodiscard]] std::string calibration_to_json(const core::CalibrationResult& result);

/// A placement-optimization outcome as JSON: initial/final placed latency,
/// improvement percentage, move statistics (attempted / accepted /
/// fast-rejected by the incremental bound), re-timing work, wall time, and
/// the best home-ULB assignment found.
[[nodiscard]] std::string optimize_to_json(const core::OptimizeResult& result);

} // namespace leqa::report
