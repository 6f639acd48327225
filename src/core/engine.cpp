#include "core/engine.h"

#include <algorithm>
#include <cmath>

#include "mathx/binomial.h"
#include "mathx/queueing.h"
#include "mathx/tsp.h"
#include "util/error.h"

namespace leqa::core {

// -------------------------------------------------------- CircuitProfile --

namespace {

/// The profile of `graph` with its IIG statistics read from `iig`.
CircuitProfile profile_from(const qodg::Qodg& graph, const iig::Iig& iig) {
    CircuitProfile profile;
    profile.graph = &graph;
    profile.num_qubits = graph.num_qubits();
    profile.num_ops = graph.num_ops();
    profile.gate_counts = graph.gate_counts();

    // Lines 1-3 of Algorithm 1: B (Eqs. 6-7).  Lines 4-8 without the
    // parameter: the W_i-weighted average of E[l_ham,i] / M_i (Eqs.
    // 15-16).  Dividing by v at estimate time recovers d_uncongest
    // (Eq. 12) exactly up to association order.
    profile.zone_area_b = iig.average_zone_area();
    double numerator = 0.0;
    double denominator = 0.0;
    for (circuit::Qubit i = 0; i < iig.num_qubits(); ++i) {
        const auto w = static_cast<double>(iig.adjacent_weight(i));
        if (w <= 0.0) continue; // no interactions: no presence-zone travel
        const auto m = static_cast<double>(iig.degree(i));
        const double l_ham = mathx::expected_hamiltonian_path(m + 1.0, m);
        numerator += w * (l_ham / m);
        denominator += w;
    }
    profile.d_uncongest_v = denominator > 0.0 ? numerator / denominator : 0.0;
    return profile;
}

} // namespace

CircuitProfile CircuitProfile::build(const qodg::Qodg& graph) {
    return profile_from(graph, graph.interaction_graph());
}

CircuitProfile CircuitProfile::build(const qodg::Qodg& graph, const iig::Iig& iig) {
    LEQA_REQUIRE(iig.num_qubits() == graph.num_qubits(),
                 "IIG and QODG come from different circuits (qubit counts differ)");
    return profile_from(graph, iig);
}

// ------------------------------------------------------ EstimationEngine --

EstimationEngine::EstimationEngine(const fabric::PhysicalParams& params,
                                   LeqaOptions options)
    : params_(params), options_(options) {
    params_.validate();
    LEQA_REQUIRE(options_.sq_terms >= 1, "sq_terms must be >= 1");
    topology_ = fabric::make_topology(params_);
}

std::vector<double> EstimationEngine::expected_surfaces(
    const fabric::CoverageHistogram& coverage, long long num_zones, long long terms) {
    LEQA_REQUIRE(num_zones >= 0, "zone count must be non-negative");
    LEQA_REQUIRE(terms >= 0 && terms <= num_zones, "terms must be in [0, Q]");

    // All distinct coverage probabilities run through ONE SoA Eq. 18
    // recursion: per q, a flat multiply/renormalize loop over contiguous
    // lanes (see mathx::BinomialRowBatch), then a multiplicity-weighted
    // reduction in bin order — the same accumulation order as the scalar
    // reference, so the sums are bit-identical.
    const std::size_t num_bins = coverage.bins().size();
    std::vector<double> probabilities(num_bins);
    std::vector<double> multiplicities(num_bins);
    for (std::size_t i = 0; i < num_bins; ++i) {
        probabilities[i] = coverage.bins()[i].probability;
        multiplicities[i] = coverage.bins()[i].multiplicity;
    }
    mathx::BinomialRowBatch rows(num_zones, probabilities);
    std::vector<double> lane_values(num_bins);

    std::vector<double> surfaces;
    surfaces.reserve(static_cast<std::size_t>(terms));
    for (long long q = 1; q <= terms; ++q) {
        rows.advance();
        rows.values(lane_values);
        double total = 0.0;
        for (std::size_t i = 0; i < num_bins; ++i) {
            total += multiplicities[i] * lane_values[i];
        }
        surfaces.push_back(total);
    }
    return surfaces;
}

std::vector<double> EstimationEngine::expected_surfaces_reference(
    const fabric::CoverageHistogram& coverage, long long num_zones, long long terms) {
    LEQA_REQUIRE(num_zones >= 0, "zone count must be non-negative");
    LEQA_REQUIRE(terms >= 0 && terms <= num_zones, "terms must be in [0, Q]");

    // One scalar Eq. 18 recursion object per distinct coverage probability;
    // each q advances every recursion by one multiplicative step.
    std::vector<mathx::BinomialTermRecursion> rows;
    rows.reserve(coverage.bins().size());
    for (const fabric::CoverageHistogram::Bin& bin : coverage.bins()) {
        rows.emplace_back(num_zones, bin.probability);
    }

    std::vector<double> surfaces;
    surfaces.reserve(static_cast<std::size_t>(terms));
    for (long long q = 1; q <= terms; ++q) {
        double total = 0.0;
        for (std::size_t r = 0; r < rows.size(); ++r) {
            rows[r].advance();
            total += coverage.bins()[r].multiplicity * rows[r].value();
        }
        surfaces.push_back(total);
    }
    return surfaces;
}

LeqaEstimate EstimationEngine::estimate(const CircuitProfile& profile) const {
    const ParameterPoint point{params_.nc, params_.v};
    return std::move(estimate_batch(profile, {&point, 1}).front());
}

std::vector<LeqaEstimate> EstimationEngine::estimate_batch(
    const CircuitProfile& profile, std::span<const ParameterPoint> points,
    const std::function<void()>& before_point) const {
    LEQA_REQUIRE(profile.graph != nullptr, "profile has no QODG attached");
    std::vector<LeqaEstimate> out(points.size());
    if (points.empty()) return out;

    const qodg::Qodg& graph = *profile.graph;
    const long long q_total = static_cast<long long>(profile.num_qubits);
    const fabric::Topology& topo = *topology_;
    const double l_one_qubit = params_.one_qubit_routing_latency_us();
    const long long terms =
        options_.exact_sq ? q_total
                          : std::min<long long>(q_total, options_.sq_terms);

    // The surfaces depend only on the geometry and the circuit, never on
    // (Nc, v): one slot lookup serves the whole batch.  Looked up lazily —
    // a batch where every point has d_uncongest <= 0 never touches E[S_q],
    // matching the scalar guard.
    bool looked_up = false;
    const auto surfaces_for_batch = [&]() -> const std::vector<double>& {
        if (!looked_up) {
            looked_up = true;
            const SurfaceKey key{topo.zone_extent(profile.zone_area_b), q_total, terms};
            if (key == surface_key_) {
                ++surface_stats_.hits;
            } else {
                ++surface_stats_.recomputes;
                if (surface_key_.side != -1) ++surface_stats_.evictions;
                surface_e_sq_ =
                    expected_surfaces(topo.coverage_histogram(key.side), q_total, terms);
                surface_key_ = key;
            }
        }
        return surface_e_sq_;
    };

    // The per-kind delay table is (Nc, v)-invariant except for the CNOT
    // entry, whose routing term carries the congestion algebra.  Build the
    // shared part once; each lane then patches its own CNOT delay.
    constexpr std::size_t kCnot = static_cast<std::size_t>(circuit::GateKind::Cnot);
    std::array<double, circuit::kGateKindCount> shared_delays{};
    for (std::size_t k = 0; k < circuit::kGateKindCount; ++k) {
        if (profile.gate_counts[k] == 0) continue;
        const auto kind = static_cast<circuit::GateKind>(k);
        const double routing = kind == circuit::GateKind::Cnot ? 0.0 : l_one_qubit;
        shared_delays[k] = params_.delay_us(kind) + routing;
    }

    // Process the axis in blocks: 32 lanes while they last, then 8, and
    // the rest in one block the lane kernel widens (a lone point runs at
    // width 1).  The per-point congestion algebra stays scalar (it is
    // O(terms) on a handful of doubles); the critical-path pass runs once
    // per block with one lane per point.
    constexpr std::size_t kMaxLanes = 32;
    std::array<std::array<double, circuit::kGateKindCount>, kMaxLanes> tables;
    std::array<qodg::PathCensus, kMaxLanes> censuses;
    qodg::LongestPathLanes lanes;

    for (std::size_t block = 0, width = 0; block < points.size(); block += width) {
        const std::size_t remaining = points.size() - block;
        width = remaining >= 32 ? 32 : remaining >= 8 ? 8 : remaining;
        for (std::size_t lane = 0; lane < width; ++lane) {
            const std::size_t index = block + lane;
            if (before_point) before_point();
            const ParameterPoint& point = points[index];
            LEQA_REQUIRE(point.nc >= 1, "channel capacity must be >= 1");
            LEQA_REQUIRE(point.v > 0.0, "speed must be positive");

            LeqaEstimate& est = out[index];
            est.num_qubits = profile.num_qubits;
            est.num_ops = profile.num_ops;
            est.l_one_qubit_avg_us = l_one_qubit;
            est.zone_area_b = profile.zone_area_b;
            est.d_uncongest_us = profile.d_uncongest_v / point.v;

            if (q_total > 0 && est.d_uncongest_us > 0.0) {
                est.e_sq = surfaces_for_batch();
                est.d_q.reserve(static_cast<std::size_t>(terms));
                double weighted_delay = 0.0;
                for (long long q = 1; q <= terms; ++q) {
                    const double surface = est.e_sq[static_cast<std::size_t>(q - 1)];
                    const double delay = mathx::congested_delay(
                        static_cast<double>(q), static_cast<double>(point.nc),
                        est.d_uncongest_us);
                    est.d_q.push_back(delay);
                    est.covered_area += surface;
                    weighted_delay += surface * delay;
                }
                est.l_cnot_avg_us = est.covered_area > 0.0
                                        ? weighted_delay / est.covered_area
                                        : 0.0;
            }

            tables[lane] = shared_delays;
            if (profile.gate_counts[kCnot] > 0) {
                tables[lane][kCnot] =
                    params_.delay_us(circuit::GateKind::Cnot) + est.l_cnot_avg_us;
            }
        }

        graph.longest_path_lanes({tables.data(), width}, lanes);
        graph.critical_census_lanes(lanes, {censuses.data(), width});

        for (std::size_t lane = 0; lane < width; ++lane) {
            LeqaEstimate& est = out[block + lane];
            est.latency_us = lanes.length[lane];
            est.critical_census = censuses[lane];
            est.critical_cnots = est.critical_census.of(circuit::GateKind::Cnot);
            est.critical_one_qubit =
                est.critical_census.total_ops - est.critical_cnots;
            for (std::size_t k = 0; k < circuit::kGateKindCount; ++k) {
                const std::size_t count = est.critical_census.by_kind[k];
                if (count > 0) {
                    est.critical_gate_delay_us +=
                        static_cast<double>(count) *
                        params_.delay_us(static_cast<circuit::GateKind>(k));
                }
            }
        }
    }
    return out;
}

} // namespace leqa::core
