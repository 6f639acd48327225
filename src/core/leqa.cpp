#include "core/leqa.h"

#include <algorithm>
#include <cmath>

#include "mathx/binomial.h"
#include "mathx/queueing.h"
#include "mathx/tsp.h"
#include "util/error.h"

namespace leqa::core {

LeqaEstimator::LeqaEstimator(const fabric::PhysicalParams& params, LeqaOptions options)
    : params_(params), options_(options) {
    params_.validate();
    LEQA_REQUIRE(options_.sq_terms >= 1, "sq_terms must be >= 1");
}

int LeqaEstimator::zone_side(double zone_area_b, int a, int b) {
    LEQA_REQUIRE(zone_area_b >= 0.0, "zone area must be non-negative");
    const int side = static_cast<int>(std::ceil(std::sqrt(zone_area_b) - 1e-12));
    return std::clamp(side, 1, std::min(a, b));
}

double LeqaEstimator::coverage_probability(int x, int y, int a, int b, int zone_side) {
    LEQA_REQUIRE(a >= 1 && b >= 1, "fabric dimensions must be >= 1");
    LEQA_REQUIRE(x >= 1 && x <= a && y >= 1 && y <= b, "ULB position out of range");
    LEQA_REQUIRE(zone_side >= 1 && zone_side <= std::min(a, b),
                 "zone side must be in [1, min(a, b)]");
    const int s = zone_side;
    // Eq. 5: placements of an s x s zone covering (x, y), over all
    // placements.  The min{} terms handle fabric-boundary truncation.
    const double nx = std::min({x, a - x + 1, s, a - s + 1});
    const double ny = std::min({y, b - y + 1, s, b - s + 1});
    const double denom = static_cast<double>(a - s + 1) * static_cast<double>(b - s + 1);
    return nx * ny / denom;
}

double LeqaEstimator::expected_surface(const std::vector<double>& coverage,
                                       long long num_zones, long long q) {
    LEQA_REQUIRE(num_zones >= 0, "zone count must be non-negative");
    LEQA_REQUIRE(q >= 0 && q <= num_zones, "q must be in [0, Q]");
    double total = 0.0;
    for (const double p : coverage) {
        total += mathx::binomial_pmf(num_zones, q, p);
    }
    return total;
}

LeqaEstimate LeqaEstimator::estimate_reference(const qodg::Qodg& graph,
                                               const iig::Iig& iig) const {
    LEQA_REQUIRE(params_.topology == fabric::TopologyKind::Grid,
                 "estimate_reference is the pre-topology golden path and only "
                 "evaluates grid fabrics; use the staged EstimationEngine for "
                 "torus/line topologies");
    LeqaEstimate out;
    out.num_qubits = iig.num_qubits();
    out.num_ops = graph.num_ops();
    out.l_one_qubit_avg_us = params_.one_qubit_routing_latency_us();

    const long long q_total = static_cast<long long>(iig.num_qubits());
    const int a = params_.width;
    const int b = params_.height;

    // --- lines 1-3: IIG statistics and average zone area B (Eqs. 6-7) ----
    out.zone_area_b = iig.average_zone_area();

    // --- lines 4-8: d_uncongest (Eqs. 12, 15, 16) --------------------------
    {
        double numerator = 0.0;
        double denominator = 0.0;
        for (circuit::Qubit i = 0; i < iig.num_qubits(); ++i) {
            const double w = static_cast<double>(iig.adjacent_weight(i));
            if (w <= 0.0) continue; // no interactions: no presence-zone travel
            const double m = static_cast<double>(iig.degree(i));
            const double l_ham = mathx::expected_hamiltonian_path(iig.zone_area(i), m);
            const double d_uncongest_i = l_ham / (params_.v * m); // Eq. 16
            numerator += w * d_uncongest_i;
            denominator += w;
        }
        out.d_uncongest_us = denominator > 0.0 ? numerator / denominator : 0.0;
    }

    // --- lines 9-13: coverage probabilities P_xy (Eq. 5) -------------------
    // --- lines 14-17: E[S_q] (Eq. 4) and d_q (Eq. 8) -----------------------
    // --- line 18: L_CNOT^avg (Eq. 2) ---------------------------------------
    if (q_total > 0 && out.d_uncongest_us > 0.0) {
        const int side = zone_side(out.zone_area_b, a, b);
        std::vector<double> coverage;
        coverage.reserve(static_cast<std::size_t>(a) * static_cast<std::size_t>(b));
        for (int x = 1; x <= a; ++x) {
            for (int y = 1; y <= b; ++y) {
                coverage.push_back(coverage_probability(x, y, a, b, side));
            }
        }

        const long long terms =
            options_.exact_sq ? q_total
                              : std::min<long long>(q_total, options_.sq_terms);
        out.e_sq.reserve(static_cast<std::size_t>(terms));
        out.d_q.reserve(static_cast<std::size_t>(terms));
        double weighted_delay = 0.0;
        for (long long q = 1; q <= terms; ++q) {
            const double surface = expected_surface(coverage, q_total, q);
            const double delay = mathx::congested_delay(
                static_cast<double>(q), static_cast<double>(params_.nc),
                out.d_uncongest_us);
            out.e_sq.push_back(surface);
            out.d_q.push_back(delay);
            out.covered_area += surface;
            weighted_delay += surface * delay;
        }
        out.l_cnot_avg_us = out.covered_area > 0.0 ? weighted_delay / out.covered_area : 0.0;
    }

    // --- lines 19-20: update QODG delays, critical path, D (Eq. 1) ---------
    const std::vector<double> delays =
        graph.node_delays([&](circuit::GateKind kind) {
            const double routing = kind == circuit::GateKind::Cnot
                                       ? out.l_cnot_avg_us
                                       : out.l_one_qubit_avg_us;
            return params_.delay_us(kind) + routing;
        });
    const qodg::LongestPath lp = graph.longest_path(delays);
    const std::vector<qodg::NodeId> path = graph.critical_path(lp);
    out.critical_census = graph.census(path);
    out.critical_cnots = out.critical_census.of(circuit::GateKind::Cnot);
    out.critical_one_qubit = out.critical_census.total_ops - out.critical_cnots;
    out.latency_us = lp.length;

    for (std::size_t k = 0; k < circuit::kGateKindCount; ++k) {
        const auto kind = static_cast<circuit::GateKind>(k);
        const std::size_t count = out.critical_census.by_kind[k];
        if (count > 0) {
            out.critical_gate_delay_us += static_cast<double>(count) * params_.delay_us(kind);
        }
    }
    return out;
}

} // namespace leqa::core
