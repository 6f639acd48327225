#include "core/calibrate.h"

#include <cmath>
#include <limits>

#include "core/engine.h"
#include "util/error.h"

namespace leqa::core {

namespace {

// The v search: a log-spaced coarse scan of [kVMin, kVMax], then
// golden-section refinement of the best grid bracket.
constexpr double kVMin = 1e-6;
constexpr double kVMax = 1.0;
constexpr int kCoarseGrid = 48;
constexpr int kRefineIterations = 40;
static_assert(kVMin > 0.0 && kVMax > kVMin, "invalid v search range");
static_assert(kCoarseGrid >= 2, "coarse grid needs >= 2 points");

void validate_sample(const GraphSample& sample) {
    LEQA_REQUIRE(sample.graph != nullptr, "null graph in calibration sample");
    LEQA_REQUIRE(sample.actual_latency_us > 0.0,
                 "calibration sample must have positive actual latency");
}

/// One training pair reduced to its circuit-invariant profile: the whole v
/// search then pays only the parameter-dependent stage per evaluation.
struct ProfiledSample {
    CircuitProfile profile;
    double actual_latency_us = 0.0;
};

std::vector<ProfiledSample> profile_samples(const std::vector<GraphSample>& samples) {
    std::vector<ProfiledSample> profiled;
    profiled.reserve(samples.size());
    for (const GraphSample& sample : samples) {
        profiled.push_back(
            {CircuitProfile::build(*sample.graph), sample.actual_latency_us});
    }
    return profiled;
}

/// One engine per sample, persistent across the whole v search: v does not
/// move the coverage geometry, so each engine's E[S_q] slot is computed on
/// the first evaluation and hit on every later one.
std::vector<EstimationEngine> engines_for(const std::vector<ProfiledSample>& samples,
                                          const fabric::PhysicalParams& params,
                                          const LeqaOptions& options) {
    std::vector<EstimationEngine> engines;
    engines.reserve(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
        engines.emplace_back(params, options);
    }
    return engines;
}

/// Mean error at speed v over index-aligned (sample, engine) pairs: a
/// one-point batch per engine, bit-identical to a fresh engine at v.
double error_at(const std::vector<ProfiledSample>& samples,
                const std::vector<EstimationEngine>& engines,
                const fabric::PhysicalParams& params, double v,
                std::size_t& evaluations) {
    const ParameterPoint point{params.nc, v};
    double total = 0.0;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const LeqaEstimate estimate =
            std::move(engines[i].estimate_batch(samples[i].profile, {&point, 1}).front());
        ++evaluations;
        total += std::abs(estimate.latency_us - samples[i].actual_latency_us) /
                 samples[i].actual_latency_us;
    }
    return total / static_cast<double>(samples.size());
}

} // namespace

double mean_abs_relative_error(const std::vector<GraphSample>& samples,
                               const fabric::PhysicalParams& params,
                               const LeqaOptions& options) {
    LEQA_REQUIRE(!samples.empty(), "need at least one calibration sample");
    for (const GraphSample& sample : samples) validate_sample(sample);
    std::size_t evaluations = 0;
    const std::vector<ProfiledSample> profiled = profile_samples(samples);
    return error_at(profiled, engines_for(profiled, params, options), params, params.v,
                    evaluations);
}

CalibrationResult calibrate_v(const std::vector<GraphSample>& samples,
                              const fabric::PhysicalParams& base_params,
                              const LeqaOptions& options) {
    LEQA_REQUIRE(!samples.empty(), "need at least one calibration sample");
    for (const GraphSample& sample : samples) validate_sample(sample);

    // Stage 1 once per sample; every v evaluation below is parameter-stage
    // work only.
    const std::vector<ProfiledSample> profiled = profile_samples(samples);
    const std::vector<EstimationEngine> engines = engines_for(profiled, base_params, options);

    CalibrationResult result;
    const double log_min = std::log10(kVMin);
    const double log_max = std::log10(kVMax);

    // Coarse log-spaced scan, batched: the grid varies only v at fixed
    // geometry, which is exactly the engine's batch axis — each sample
    // evaluates the entire grid in one estimate_batch call instead of one
    // scalar estimate per (sample, v) pair.  Error accumulation order over
    // samples matches the scalar error_at, so the scan is bit-identical.
    const std::size_t grid_size = static_cast<std::size_t>(kCoarseGrid);
    std::vector<double> grid_log_v(grid_size);
    std::vector<ParameterPoint> grid_points(grid_size);
    for (int i = 0; i < kCoarseGrid; ++i) {
        const double log_v = log_min + (log_max - log_min) * i / (kCoarseGrid - 1);
        grid_log_v[static_cast<std::size_t>(i)] = log_v;
        grid_points[static_cast<std::size_t>(i)] =
            ParameterPoint{base_params.nc, std::pow(10.0, log_v)};
    }
    std::vector<double> grid_error(grid_size, 0.0);
    for (std::size_t s = 0; s < profiled.size(); ++s) {
        const std::vector<LeqaEstimate> estimates =
            engines[s].estimate_batch(profiled[s].profile, grid_points);
        result.evaluations += estimates.size();
        for (std::size_t i = 0; i < grid_size; ++i) {
            grid_error[i] += std::abs(estimates[i].latency_us -
                                      profiled[s].actual_latency_us) /
                             profiled[s].actual_latency_us;
        }
    }
    double best_log_v = log_min;
    double best_error = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < grid_size; ++i) {
        const double error =
            grid_error[i] / static_cast<double>(profiled.size());
        if (error < best_error) {
            best_error = error;
            best_log_v = grid_log_v[i];
        }
    }

    // Golden-section refinement on the bracket around the best grid point.
    const double step = (log_max - log_min) / (kCoarseGrid - 1);
    double lo = std::max(log_min, best_log_v - step);
    double hi = std::min(log_max, best_log_v + step);
    constexpr double kInvPhi = 0.6180339887498949;
    double x1 = hi - kInvPhi * (hi - lo);
    double x2 = lo + kInvPhi * (hi - lo);
    double f1 = error_at(profiled, engines, base_params, std::pow(10.0, x1),
                         result.evaluations);
    double f2 = error_at(profiled, engines, base_params, std::pow(10.0, x2),
                         result.evaluations);
    for (int i = 0; i < kRefineIterations; ++i) {
        if (f1 <= f2) {
            hi = x2;
            x2 = x1;
            f2 = f1;
            x1 = hi - kInvPhi * (hi - lo);
            f1 = error_at(profiled, engines, base_params, std::pow(10.0, x1),
                          result.evaluations);
        } else {
            lo = x1;
            x1 = x2;
            f1 = f2;
            x2 = lo + kInvPhi * (hi - lo);
            f2 = error_at(profiled, engines, base_params, std::pow(10.0, x2),
                          result.evaluations);
        }
    }
    const double refined_log_v = f1 <= f2 ? x1 : x2;
    const double refined_error = std::min(f1, f2);

    if (refined_error <= best_error) {
        result.v = std::pow(10.0, refined_log_v);
        result.mean_abs_rel_error = refined_error;
    } else {
        result.v = std::pow(10.0, best_log_v);
        result.mean_abs_rel_error = best_error;
    }
    return result;
}

} // namespace leqa::core
