/// \file leqa.h
/// \brief LEQA: the fast latency estimator (the paper's contribution).
///
/// Implements Algorithm 1 end to end:
///
///   1.  build the interaction intensity graph IIG(V,E);
///   2.  per-qubit neighborhood counts M_i and zone areas B_i (Eq. 6);
///   3.  average zone area B (Eq. 7);
///   4-7.  expected Hamiltonian path lengths E[l_ham,i] (Eq. 15) and
///         uncongested per-op routing latencies d_uncongest,i (Eq. 16);
///   8.  weighted-average d_uncongest (Eq. 12);
///   9-13.  per-ULB coverage probabilities P_xy (Eq. 5);
///   14-17.  expected q-fold-covered surfaces E[S_q] (Eq. 4, log-space
///           binomials; truncated at `sq_terms`, 20 by default as in the
///           paper) and congestion-aware delays d_q (Eq. 8, M/M/1);
///   18. the average CNOT routing latency L_CNOT^avg (Eq. 2);
///   19. update the QODG with per-kind delays d_g + L_g^avg and recompute
///       the critical path;
///   20. the estimated latency D (Eq. 1).
///
/// Runtime is O(|V| + |E| + T·A·logQ) with T = min(Q, sq_terms) (Eq. 17).
#pragma once

#include <vector>

#include "fabric/params.h"
#include "iig/iig.h"
#include "qodg/qodg.h"

namespace leqa::core {

struct LeqaOptions {
    /// Number of E[S_q] terms evaluated (the paper computes the first 20).
    int sq_terms = 20;
    /// Evaluate all Q terms regardless of sq_terms (the ablation reference).
    bool exact_sq = false;
};

/// Full estimator output, including every intermediate the paper defines —
/// useful for the breakdown report, the benches, and the tests.
struct LeqaEstimate {
    double latency_us = 0.0;            ///< D (Eq. 1)

    // Routing model intermediates.
    double zone_area_b = 1.0;           ///< B (Eq. 7)
    double d_uncongest_us = 0.0;        ///< d_uncongest (Eq. 12)
    double l_cnot_avg_us = 0.0;         ///< L_CNOT^avg (Eq. 2)
    double l_one_qubit_avg_us = 0.0;    ///< L_g^avg = 2 Tmove
    std::vector<double> e_sq;           ///< E[S_q], index i => q = i+1
    std::vector<double> d_q;            ///< d_q,   index i => q = i+1
    double covered_area = 0.0;          ///< sum of computed E[S_q]

    // Critical-path census (N^critical of Eq. 1).
    qodg::PathCensus critical_census;
    std::size_t critical_cnots = 0;
    std::size_t critical_one_qubit = 0;
    double critical_gate_delay_us = 0.0; ///< sum of d_g on the path (no routing)

    std::size_t num_qubits = 0;
    std::size_t num_ops = 0;

    /// Latency in seconds (the unit of the paper's Table 2).
    [[nodiscard]] double latency_seconds() const { return latency_us * 1e-6; }
};

/// The golden reference for Algorithm 1.  Estimates come from the staged
/// `EstimationEngine` (core/engine.h) on a `CircuitProfile`, usually through
/// `pipeline::Pipeline`; this class keeps the pre-refactor evaluation the
/// engine's parity tests and the benchmark oracle compare against, plus the
/// closed-form model pieces of Eqs. 4 and 5.
class LeqaEstimator {
public:
    explicit LeqaEstimator(const fabric::PhysicalParams& params, LeqaOptions options = {});

    /// The pre-refactor evaluation of Algorithm 1: full a x b coverage
    /// table, per-cell log-space binomial PMF.  O(a*b*T) per call.
    /// `iig.num_qubits()` supplies Q.  Grid topology only (throws
    /// InputError otherwise); the staged engine is the topology-generic
    /// path.
    [[nodiscard]] LeqaEstimate estimate_reference(const qodg::Qodg& graph,
                                                  const iig::Iig& iig) const;

    // --- exposed model pieces (unit-tested directly) -----------------------

    /// Eq. 5: probability that ULB (x, y) (1-based) is covered by one
    /// randomly placed zone of side `zone_side` on an a x b fabric.
    [[nodiscard]] static double coverage_probability(int x, int y, int a, int b,
                                                     int zone_side);

    /// Zone side ceil(sqrt(B)) clamped to [1, min(a, b)].
    [[nodiscard]] static int zone_side(double zone_area_b, int a, int b);

    /// Eq. 4 for one q: expected surface covered by exactly q zones.
    [[nodiscard]] static double expected_surface(
        const std::vector<double>& coverage, long long num_zones, long long q);

private:
    fabric::PhysicalParams params_;
    LeqaOptions options_;
};

} // namespace leqa::core
