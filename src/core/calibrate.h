/// \file calibrate.h
/// \brief Fitting LEQA's speed parameter v against a detailed mapper.
///
/// The paper (§3.2) introduces v as "a parameter depending on the physical
/// characteristics of the fabric technology ... [that] also can be used for
/// tuning the LEQA with different quantum mappers".  The calibrator fits v
/// on a small training set of (circuit, actual latency) pairs produced by a
/// mapper (our QSPR re-implementation), minimizing the mean absolute
/// relative error; the fitted v is then frozen for evaluation, mirroring
/// the paper's methodology of one fixed v per mapper.
#pragma once

#include <vector>

#include "core/leqa.h"
#include "fabric/params.h"
#include "qodg/qodg.h"

namespace leqa::core {

/// One training pair: a circuit's prebuilt QODG (the pipeline's cached
/// intermediate, so the v search never rebuilds it; the profile reads its
/// IIG statistics from the tape) and the mapper's latency for it.
struct GraphSample {
    const qodg::Qodg* graph = nullptr; ///< borrowed, not owned
    double actual_latency_us = 0.0;
};

struct CalibrationResult {
    double v = 0.0;                 ///< fitted speed parameter
    double mean_abs_rel_error = 0.0; ///< at the fitted v, over the samples
    std::size_t evaluations = 0;    ///< estimator invocations spent
};

/// Mean absolute relative error of LEQA over samples at the given params.
[[nodiscard]] double mean_abs_relative_error(
    const std::vector<GraphSample>& samples, const fabric::PhysicalParams& params,
    const LeqaOptions& options);

/// Fit v: a 48-point log-grid scan of [1e-6, 1] followed by 40
/// golden-section steps on the best bracket.  Deterministic.  Throws
/// InputError on an empty sample set.  The whole search runs on the
/// samples' graphs without a single QODG or IIG construction;
/// `Pipeline::calibrate` is the facade over it.
[[nodiscard]] CalibrationResult calibrate_v(
    const std::vector<GraphSample>& samples, const fabric::PhysicalParams& base_params,
    const LeqaOptions& options = {});

} // namespace leqa::core
