// Tests for the LEQA estimator: coverage probabilities (Eq. 5), expected
// surfaces (Eqs. 3-4), the end-to-end Algorithm 1, and the v calibrator.
#include <gtest/gtest.h>

#include <cmath>
#include <deque>
#include <numeric>

#include "core/calibrate.h"
#include "core/engine.h"
#include "core/leqa.h"
#include "estimate.h"
#include "pipeline/pipeline.h"
#include "synth/ft_synth.h"
#include "util/error.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace lf = leqa::fabric;
namespace lcore = leqa::core;
namespace lp = leqa::pipeline;
namespace lt = leqa::test_support;
using leqa::util::InputError;

namespace {

lf::PhysicalParams paper_params() { return lf::PhysicalParams{}; }

/// Random FT circuit with a controllable interaction richness.
lc::Circuit random_ft_circuit(std::size_t qubits, std::size_t gates, std::uint64_t seed) {
    leqa::util::Rng rng(seed);
    lc::Circuit circ(qubits);
    for (std::size_t g = 0; g < gates; ++g) {
        const auto picks = rng.sample_without_replacement(qubits, 2);
        switch (rng.index(4)) {
            case 0: circ.h(static_cast<lc::Qubit>(picks[0])); break;
            case 1: circ.t(static_cast<lc::Qubit>(picks[0])); break;
            default:
                circ.cnot(static_cast<lc::Qubit>(picks[0]),
                          static_cast<lc::Qubit>(picks[1]));
                break;
        }
    }
    return circ;
}

} // namespace

// ------------------------------------------------------ coverage (Eq. 5) --

TEST(Coverage, ZoneSideComputation) {
    EXPECT_EQ(lcore::LeqaEstimator::zone_side(1.0, 60, 60), 1);
    EXPECT_EQ(lcore::LeqaEstimator::zone_side(4.0, 60, 60), 2);
    EXPECT_EQ(lcore::LeqaEstimator::zone_side(5.0, 60, 60), 3);  // ceil(sqrt(5))
    EXPECT_EQ(lcore::LeqaEstimator::zone_side(10000.0, 60, 60), 60); // clamped
    EXPECT_EQ(lcore::LeqaEstimator::zone_side(0.0, 60, 60), 1);      // floor clamp
    EXPECT_EQ(lcore::LeqaEstimator::zone_side(9.0, 2, 8), 2);        // min(a,b) clamp
}

TEST(Coverage, ProbabilityBounds) {
    for (const int s : {1, 3, 7, 10}) {
        for (int x = 1; x <= 10; ++x) {
            for (int y = 1; y <= 10; ++y) {
                const double p = lcore::LeqaEstimator::coverage_probability(x, y, 10, 10, s);
                EXPECT_GE(p, 0.0);
                EXPECT_LE(p, 1.0);
            }
        }
    }
}

TEST(Coverage, FullZoneCoversEverything) {
    // s = a = b: the zone is the whole fabric, every ULB covered surely.
    for (int x = 1; x <= 5; ++x) {
        for (int y = 1; y <= 5; ++y) {
            EXPECT_DOUBLE_EQ(lcore::LeqaEstimator::coverage_probability(x, y, 5, 5, 5), 1.0);
        }
    }
}

TEST(Coverage, UnitZoneIsUniform) {
    // s = 1: one ULB zone placed uniformly covers each cell with 1/A.
    for (int x = 1; x <= 4; ++x) {
        for (int y = 1; y <= 3; ++y) {
            EXPECT_NEAR(lcore::LeqaEstimator::coverage_probability(x, y, 4, 3, 1),
                        1.0 / 12.0, 1e-12);
        }
    }
}

TEST(Coverage, CenterMoreLikelyThanCorner) {
    const double corner = lcore::LeqaEstimator::coverage_probability(1, 1, 11, 11, 3);
    const double center = lcore::LeqaEstimator::coverage_probability(6, 6, 11, 11, 3);
    EXPECT_GT(center, corner);
}

TEST(Coverage, SymmetricUnderReflection) {
    const int a = 9, b = 7, s = 3;
    for (int x = 1; x <= a; ++x) {
        for (int y = 1; y <= b; ++y) {
            const double p = lcore::LeqaEstimator::coverage_probability(x, y, a, b, s);
            const double p_mirror_x =
                lcore::LeqaEstimator::coverage_probability(a - x + 1, y, a, b, s);
            const double p_mirror_y =
                lcore::LeqaEstimator::coverage_probability(x, b - y + 1, a, b, s);
            EXPECT_NEAR(p, p_mirror_x, 1e-12);
            EXPECT_NEAR(p, p_mirror_y, 1e-12);
        }
    }
}

TEST(Coverage, TotalExpectedCoverageEqualsZoneArea) {
    // Sum over all ULBs of P_xy = expected number of covered cells = s^2
    // (every placement covers exactly s^2 cells).
    for (const int s : {1, 2, 3, 5}) {
        const int a = 8, b = 6;
        double sum = 0.0;
        for (int x = 1; x <= a; ++x) {
            for (int y = 1; y <= b; ++y) {
                sum += lcore::LeqaEstimator::coverage_probability(x, y, a, b, s);
            }
        }
        EXPECT_NEAR(sum, static_cast<double>(s) * s, 1e-9) << "s=" << s;
    }
}

TEST(Coverage, InvalidArguments) {
    EXPECT_THROW((void)lcore::LeqaEstimator::coverage_probability(0, 1, 5, 5, 2), InputError);
    EXPECT_THROW((void)lcore::LeqaEstimator::coverage_probability(6, 1, 5, 5, 2), InputError);
    EXPECT_THROW((void)lcore::LeqaEstimator::coverage_probability(1, 1, 5, 5, 6), InputError);
    EXPECT_THROW((void)lcore::LeqaEstimator::coverage_probability(1, 1, 5, 5, 0), InputError);
}

// ----------------------------------------------- surfaces (Eqs. 3 and 4) --

TEST(Surfaces, SumOverQEqualsFabricArea) {
    // Eq. 3: sum_{q=0..Q} E[S_q] = A.
    const int a = 12, b = 9, s = 3;
    std::vector<double> coverage;
    for (int x = 1; x <= a; ++x) {
        for (int y = 1; y <= b; ++y) {
            coverage.push_back(lcore::LeqaEstimator::coverage_probability(x, y, a, b, s));
        }
    }
    for (const long long q_total : {1LL, 5LL, 23LL}) {
        double sum = 0.0;
        for (long long q = 0; q <= q_total; ++q) {
            sum += lcore::LeqaEstimator::expected_surface(coverage, q_total, q);
        }
        EXPECT_NEAR(sum, static_cast<double>(a * b), 1e-8) << "Q=" << q_total;
    }
}

TEST(Surfaces, ZeroZonesLeaveFabricEmpty) {
    const std::vector<double> coverage(20, 0.1);
    EXPECT_NEAR(lcore::LeqaEstimator::expected_surface(coverage, 0, 0), 20.0, 1e-12);
    EXPECT_THROW((void)lcore::LeqaEstimator::expected_surface(coverage, 0, 1), InputError);
}

TEST(Surfaces, LargeQStaysFinite) {
    const std::vector<double> coverage(100, 0.004);
    for (long long q = 0; q <= 20; ++q) {
        const double s = lcore::LeqaEstimator::expected_surface(coverage, 3145, q);
        EXPECT_TRUE(std::isfinite(s));
        EXPECT_GE(s, 0.0);
    }
}

// --------------------------------------------------- estimator (Alg. 1) --

TEST(Estimator, RejectsNonFtCircuit) {
    // With synthesis off, a Toffoli has no FT delay to price.
    lc::Circuit circ(3);
    circ.toffoli(0, 1, 2);
    lp::PipelineConfig config;
    config.auto_synthesize = false;
    lp::Pipeline pipe(config);
    EXPECT_THROW((void)pipe.run(lp::EstimationRequest(lp::CircuitSource::from_circuit(circ))),
                 InputError);
}

TEST(Estimator, OneQubitChainMatchesHandComputation) {
    // No CNOTs: D = sum of (d_g + 2 Tmove) along the chain.
    lc::Circuit circ(1);
    circ.h(0).t(0).h(0);
    const auto params = paper_params();
    const auto estimate = lt::estimate(circ, params);
    const double expected = (5440.0 + 200.0) + (10940.0 + 200.0) + (5440.0 + 200.0);
    EXPECT_NEAR(estimate.latency_us, expected, 1e-9);
    EXPECT_DOUBLE_EQ(estimate.l_cnot_avg_us, 0.0); // no interactions
    EXPECT_EQ(estimate.critical_census.total_ops, 3u);
    EXPECT_EQ(estimate.critical_one_qubit, 3u);
}

TEST(Estimator, SingleCnotDegenerateZones) {
    // Two qubits, one CNOT: M_i = 1 for both, so Eq. 15 gives zero expected
    // path and the CNOT routing latency vanishes; D = d_CNOT.
    lc::Circuit circ(2);
    circ.cnot(0, 1);
    const auto estimate = lt::estimate(circ, paper_params());
    EXPECT_DOUBLE_EQ(estimate.d_uncongest_us, 0.0);
    EXPECT_DOUBLE_EQ(estimate.l_cnot_avg_us, 0.0);
    EXPECT_NEAR(estimate.latency_us, 4930.0, 1e-9);
    EXPECT_EQ(estimate.critical_cnots, 1u);
}

TEST(Estimator, RicherInteractionsYieldPositiveRoutingLatency) {
    const auto circ = random_ft_circuit(12, 200, 11);
    const auto estimate = lt::estimate(circ, paper_params());
    EXPECT_GT(estimate.zone_area_b, 1.0);
    EXPECT_GT(estimate.d_uncongest_us, 0.0);
    EXPECT_GT(estimate.l_cnot_avg_us, 0.0);
    EXPECT_GT(estimate.latency_us, estimate.critical_gate_delay_us);
    EXPECT_EQ(estimate.num_qubits, 12u);
    EXPECT_EQ(estimate.num_ops, 200u);
    EXPECT_FALSE(estimate.e_sq.empty());
    EXPECT_EQ(estimate.e_sq.size(), estimate.d_q.size());
}

TEST(Estimator, EsqTermsCappedByQubitsAndOption) {
    const auto circ = random_ft_circuit(6, 60, 4);
    lcore::LeqaOptions options;
    options.sq_terms = 20;
    const auto estimate = lt::estimate(circ, paper_params(), options);
    EXPECT_LE(estimate.e_sq.size(), 6u); // min(Q, 20)

    lcore::LeqaOptions few;
    few.sq_terms = 3;
    EXPECT_EQ(lt::estimate(circ, paper_params(), few).e_sq.size(), 3u);
}

TEST(Estimator, ExactSqMatchesTruncationForSmallQ) {
    // With Q <= sq_terms the truncated and exact paths are identical.
    const auto circ = random_ft_circuit(8, 120, 9);
    lcore::LeqaOptions truncated;
    truncated.sq_terms = 20;
    lcore::LeqaOptions exact;
    exact.exact_sq = true;
    const auto e_trunc = lt::estimate(circ, paper_params(), truncated);
    const auto e_exact = lt::estimate(circ, paper_params(), exact);
    EXPECT_NEAR(e_trunc.latency_us, e_exact.latency_us, 1e-9);
}

TEST(Estimator, TwentyTermTruncationIsAccurateAtScale) {
    // The paper's claim (§3.1): the first 20 E[S_q] terms suffice.  With a
    // mid-size random circuit the truncated estimate must stay within a
    // fraction of a percent of the exact one.
    const auto circ = random_ft_circuit(64, 2000, 21);
    lcore::LeqaOptions exact;
    exact.exact_sq = true;
    const auto e_trunc = lt::estimate(circ, paper_params());
    const auto e_exact = lt::estimate(circ, paper_params(), exact);
    EXPECT_NEAR(e_trunc.latency_us / e_exact.latency_us, 1.0, 5e-3);
}

TEST(Estimator, FasterQubitsLowerTheEstimate) {
    const auto circ = random_ft_circuit(16, 300, 13);
    auto slow = paper_params();
    slow.v = 0.0005;
    auto fast = paper_params();
    fast.v = 0.01;
    const auto d_slow = lt::estimate(circ, slow).latency_us;
    const auto d_fast = lt::estimate(circ, fast).latency_us;
    EXPECT_GT(d_slow, d_fast);
}

TEST(Estimator, LargerChannelCapacityNeverHurts) {
    const auto circ = random_ft_circuit(40, 800, 15);
    auto narrow = paper_params();
    narrow.nc = 1;
    auto wide = paper_params();
    wide.nc = 10;
    const auto d_narrow = lt::estimate(circ, narrow).latency_us;
    const auto d_wide = lt::estimate(circ, wide).latency_us;
    EXPECT_GE(d_narrow, d_wide);
}

TEST(Estimator, PipelineMatchesEngineOnPrebuiltGraphs) {
    const auto circ = random_ft_circuit(10, 150, 19);
    lp::Pipeline pipe;
    const auto via_pipeline =
        pipe.run(lp::EstimationRequest(lp::CircuitSource::from_circuit(circ))).estimate;
    ASSERT_TRUE(via_pipeline.has_value());
    const auto direct = lt::estimate(circ, paper_params());
    EXPECT_DOUBLE_EQ(direct.latency_us, via_pipeline->latency_us);
    EXPECT_DOUBLE_EQ(direct.l_cnot_avg_us, via_pipeline->l_cnot_avg_us);
}

TEST(Estimator, DeterministicAcrossCalls) {
    const auto circ = random_ft_circuit(10, 150, 19);
    const leqa::qodg::Qodg graph(circ);
    const leqa::iig::Iig iig(circ);
    const auto profile = lcore::CircuitProfile::build(graph, iig);
    const lcore::EstimationEngine engine(paper_params());
    EXPECT_DOUBLE_EQ(engine.estimate(profile).latency_us,
                     engine.estimate(profile).latency_us);
}

TEST(Estimator, CriticalCensusConsistent) {
    const auto circ = random_ft_circuit(8, 100, 5);
    const auto estimate = lt::estimate(circ, paper_params());
    EXPECT_EQ(estimate.critical_cnots + estimate.critical_one_qubit,
              estimate.critical_census.total_ops);
    // Hand-check Eq. 1: D = sum over path kinds of N_kind * (d_kind + L_kind).
    const auto params = paper_params();
    double reconstructed = 0.0;
    for (std::size_t k = 0; k < lc::kGateKindCount; ++k) {
        const auto kind = static_cast<lc::GateKind>(k);
        const auto count = estimate.critical_census.by_kind[k];
        if (count == 0) continue;
        const double routing = kind == lc::GateKind::Cnot ? estimate.l_cnot_avg_us
                                                          : estimate.l_one_qubit_avg_us;
        reconstructed += static_cast<double>(count) * (params.delay_us(kind) + routing);
    }
    EXPECT_NEAR(reconstructed, estimate.latency_us, 1e-6);
}

TEST(Estimator, LatencySecondsConversion) {
    lc::Circuit circ(1);
    circ.h(0);
    const auto estimate = lt::estimate(circ, paper_params());
    EXPECT_NEAR(estimate.latency_seconds() * 1e6, estimate.latency_us, 1e-12);
}

TEST(Estimator, InvalidOptions) {
    lcore::LeqaOptions options;
    options.sq_terms = 0;
    EXPECT_THROW(lcore::LeqaEstimator(paper_params(), options), InputError);
    EXPECT_THROW(lcore::EstimationEngine(paper_params(), options), InputError);
}

// -------------------------------------------------------------- calibrate --

TEST(Calibrate, RecoversGeneratingV) {
    // Produce "actual" latencies from LEQA itself at a secret v; the
    // calibrator must recover it to within the grid/golden tolerance.
    const double secret_v = 0.0031;
    auto generator_params = paper_params();
    generator_params.v = secret_v;

    std::deque<leqa::qodg::Qodg> graphs;
    std::vector<lcore::GraphSample> samples;
    for (const auto& circ : {random_ft_circuit(16, 400, 100), random_ft_circuit(24, 600, 101),
                             random_ft_circuit(12, 300, 102)}) {
        samples.push_back(
            {&graphs.emplace_back(circ), lt::estimate(circ, generator_params).latency_us});
    }
    const auto result = lcore::calibrate_v(samples, paper_params());
    EXPECT_LT(result.mean_abs_rel_error, 1e-4);
    EXPECT_NEAR(std::log10(result.v), std::log10(secret_v), 0.02);
    EXPECT_GT(result.evaluations, 0u);

    // The search's errors came from engines whose E[S_q] slot served every
    // step; cold engines at the fitted v reproduce the error bit for bit.
    auto fitted_params = paper_params();
    fitted_params.v = result.v;
    EXPECT_EQ(lcore::mean_abs_relative_error(samples, fitted_params, {}),
              result.mean_abs_rel_error);
}

TEST(Calibrate, ErrorMetricMatchesDefinition) {
    const auto circ = random_ft_circuit(10, 200, 7);
    const double actual = lt::estimate(circ, paper_params()).latency_us * 1.10; // 10% off
    const leqa::qodg::Qodg graph(circ);
    const std::vector<lcore::GraphSample> samples{{&graph, actual}};
    const double error =
        lcore::mean_abs_relative_error(samples, paper_params(), lcore::LeqaOptions{});
    EXPECT_NEAR(error, 0.10 / 1.10, 1e-9);
}

TEST(Calibrate, RejectsBadInput) {
    EXPECT_THROW((void)lcore::calibrate_v(std::vector<lcore::GraphSample>{},
                                          paper_params()),
                 InputError);
    const leqa::qodg::Qodg graph(random_ft_circuit(4, 20, 3));
    const std::vector<lcore::GraphSample> unpriced{{&graph, 0.0}};
    EXPECT_THROW((void)lcore::calibrate_v(unpriced, paper_params()), InputError);
    const std::vector<lcore::GraphSample> no_graphs{{nullptr, 1.0}};
    EXPECT_THROW((void)lcore::calibrate_v(no_graphs, paper_params()), InputError);
}
