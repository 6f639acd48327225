// Tests for the staged estimation engine: the Eq. 18 running PMF recursion,
// the compressed coverage histogram, and the golden parity bar — the staged
// engine must reproduce the pre-refactor estimate path
// (LeqaEstimator::estimate_reference) to within 1e-9 relative across the
// bench suite and across parameter points.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/suite.h"
#include "core/engine.h"
#include "core/leqa.h"
#include "fabric/topology.h"
#include "iig/iig.h"
#include "mathx/binomial.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "synth/ft_synth.h"
#include "util/error.h"

namespace lb = leqa::benchgen;
namespace lc = leqa::circuit;
namespace lcore = leqa::core;
namespace lf = leqa::fabric;
namespace lm = leqa::mathx;

namespace {

void expect_rel_near(double actual, double expected, double rel_tol,
                     const std::string& what) {
    const double scale = std::max({std::abs(expected), std::abs(actual), 1e-300});
    EXPECT_LE(std::abs(actual - expected) / scale, rel_tol) << what << ": " << actual
                                                            << " vs " << expected;
}

} // namespace

// ------------------------------------------------- Eq. 18 running PMF ------

TEST(BinomialTermRecursion, MatchesLogSpacePmf) {
    for (const auto& [n, p] : std::vector<std::pair<std::int64_t, double>>{
             {10, 0.3}, {768, 0.004}, {768, 0.25}, {3145, 0.004}, {50, 0.97}}) {
        lm::BinomialTermRecursion row(n, p);
        for (std::int64_t q = 0; q <= std::min<std::int64_t>(n, 40); ++q) {
            const double reference = lm::binomial_pmf(n, q, p);
            if (reference > 0.0) {
                expect_rel_near(row.value(), reference, 1e-11,
                                "pmf(n=" + std::to_string(n) + ", q=" + std::to_string(q) +
                                    ")");
            } else {
                EXPECT_NEAR(row.value(), 0.0, 1e-300);
            }
            row.advance();
        }
    }
}

TEST(BinomialTermRecursion, SurvivesUnderflowingStart) {
    // (1-p)^n underflows double range, but the q ~ n*p terms are well inside
    // it; the scaled recursion must recover them where a naive linear
    // product would be stuck at zero.
    const std::int64_t n = 4000;
    const double p = 0.5; // (1-p)^n = 2^-4000, far below double range
    lm::BinomialTermRecursion row(n, p);
    for (std::int64_t q = 0; q < 2000; ++q) row.advance();
    const double reference = lm::binomial_pmf(n, 2000, p);
    EXPECT_GT(reference, 0.0);
    expect_rel_near(row.value(), reference, 1e-9, "pmf(4000, 2000, 0.5)");
}

TEST(BinomialTermRecursion, ExactEndpoints) {
    lm::BinomialTermRecursion zero(5, 0.0);
    EXPECT_DOUBLE_EQ(zero.value(), 1.0);
    zero.advance();
    EXPECT_DOUBLE_EQ(zero.value(), 0.0);

    lm::BinomialTermRecursion one(3, 1.0);
    EXPECT_DOUBLE_EQ(one.value(), 0.0);
    one.advance();
    one.advance();
    one.advance();
    EXPECT_DOUBLE_EQ(one.value(), 1.0); // q == n

    lm::BinomialTermRecursion tiny(0, 0.4);
    EXPECT_DOUBLE_EQ(tiny.value(), 1.0);
    tiny.advance(); // past q == n pins to zero
    EXPECT_DOUBLE_EQ(tiny.value(), 0.0);
}

TEST(BinomialTermRecursion, AgreesWithEq18Row) {
    // At p = 1/2 the PMF is C(n,q) / 2^n: the running recursion must track
    // the directly evaluated Eq. 18 row.
    const std::int64_t n = 30;
    const auto row = lm::binomial_row_recursive(n, n);
    lm::BinomialTermRecursion running(n, 0.5);
    const double scale = std::pow(2.0, -static_cast<double>(n));
    for (std::int64_t q = 0; q <= n; ++q) {
        expect_rel_near(running.value(), row[static_cast<std::size_t>(q)] * scale, 1e-12,
                        "q=" + std::to_string(q));
        running.advance();
    }
}

// ---------------------------------------------------- coverage histogram ---

TEST(CoverageHistogram, MatchesPerCellTableAndStaysSmall) {
    for (const auto& [a, b, s] : std::vector<std::array<int, 3>>{
             {10, 10, 3}, {60, 60, 6}, {50, 50, 7}, {7, 13, 5}, {5, 5, 5}, {9, 4, 1}}) {
        const auto histogram = lf::CoverageHistogram::build(a, b, s);

        // Bin count is bounded by s^2 however large the fabric is.
        EXPECT_LE(histogram.bins().size(),
                  static_cast<std::size_t>(s) * static_cast<std::size_t>(s));

        // Multiplicities add up to the fabric area...
        double total_cells = 0.0;
        for (const auto& bin : histogram.bins()) total_cells += bin.multiplicity;
        EXPECT_DOUBLE_EQ(total_cells, static_cast<double>(a) * b);
        EXPECT_DOUBLE_EQ(histogram.cells(), static_cast<double>(a) * b);

        // ... and the multiplicity-weighted probabilities match the
        // per-cell Eq. 5 table exactly (same nx*ny/denom doubles).
        std::map<double, double> expected;
        for (int x = 1; x <= a; ++x) {
            for (int y = 1; y <= b; ++y) {
                expected[lcore::LeqaEstimator::coverage_probability(x, y, a, b, s)] += 1.0;
            }
        }
        ASSERT_EQ(histogram.bins().size(), expected.size()) << a << "x" << b << " s=" << s;
        for (const auto& bin : histogram.bins()) {
            const auto it = expected.find(bin.probability);
            ASSERT_NE(it, expected.end()) << "probability " << bin.probability;
            EXPECT_DOUBLE_EQ(bin.multiplicity, it->second);
        }
    }
}

TEST(CoverageHistogram, ExpectedSurfacesMatchReferenceSummation) {
    const int a = 60, b = 60, s = 6;
    const auto histogram = lf::CoverageHistogram::build(a, b, s);
    std::vector<double> coverage;
    for (int x = 1; x <= a; ++x) {
        for (int y = 1; y <= b; ++y) {
            coverage.push_back(lcore::LeqaEstimator::coverage_probability(x, y, a, b, s));
        }
    }
    const long long q_total = 768;
    const auto surfaces = lcore::EstimationEngine::expected_surfaces(histogram, q_total, 20);
    ASSERT_EQ(surfaces.size(), 20u);
    for (long long q = 1; q <= 20; ++q) {
        const double reference = lcore::LeqaEstimator::expected_surface(coverage, q_total, q);
        expect_rel_near(surfaces[static_cast<std::size_t>(q - 1)], reference, 1e-9,
                        "E[S_" + std::to_string(q) + "]");
    }
}

TEST(CoverageHistogram, InvalidArguments) {
    EXPECT_THROW((void)lf::CoverageHistogram::build(0, 5, 1), leqa::util::InputError);
    EXPECT_THROW((void)lf::CoverageHistogram::build(5, 5, 0), leqa::util::InputError);
    EXPECT_THROW((void)lf::CoverageHistogram::build(5, 5, 6), leqa::util::InputError);
}

// ------------------------------------------------------- golden parity -----

namespace {

void expect_estimates_match(const lcore::LeqaEstimate& staged,
                            const lcore::LeqaEstimate& reference,
                            const std::string& what) {
    expect_rel_near(staged.latency_us, reference.latency_us, 1e-9, what + " latency");
    expect_rel_near(staged.zone_area_b, reference.zone_area_b, 1e-9, what + " B");
    expect_rel_near(staged.d_uncongest_us, reference.d_uncongest_us, 1e-9,
                    what + " d_uncongest");
    expect_rel_near(staged.l_cnot_avg_us, reference.l_cnot_avg_us, 1e-9,
                    what + " L_CNOT");
    expect_rel_near(staged.covered_area, reference.covered_area, 1e-9,
                    what + " covered area");
    ASSERT_EQ(staged.e_sq.size(), reference.e_sq.size()) << what;
    for (std::size_t k = 0; k < reference.e_sq.size(); ++k) {
        expect_rel_near(staged.e_sq[k], reference.e_sq[k], 1e-9,
                        what + " E[S_" + std::to_string(k + 1) + "]");
        expect_rel_near(staged.d_q[k], reference.d_q[k], 1e-9,
                        what + " d_" + std::to_string(k + 1));
    }
    // The census is discrete: it must match exactly.
    EXPECT_EQ(staged.critical_census.total_ops, reference.critical_census.total_ops)
        << what;
    for (std::size_t k = 0; k < lc::kGateKindCount; ++k) {
        EXPECT_EQ(staged.critical_census.by_kind[k], reference.critical_census.by_kind[k])
            << what << " kind " << k;
    }
    EXPECT_EQ(staged.critical_cnots, reference.critical_cnots) << what;
    expect_rel_near(staged.critical_gate_delay_us, reference.critical_gate_delay_us, 1e-9,
                    what + " critical gate delay");
}

} // namespace

TEST(EngineParity, ReproducesReferenceAcrossBenchSuite) {
    for (const auto& spec : lb::paper_suite()) {
        if (spec.paper_ops > 70000) continue; // keep runtime modest
        const auto ft = lb::make_ft_benchmark(spec.name).circuit;
        const leqa::qodg::Qodg graph(ft);
        const leqa::iig::Iig iig(ft);
        const auto profile = lcore::CircuitProfile::build(graph, iig);

        // Default Table 1 parameters and the 50x50 fabric of the perf bar.
        std::vector<lf::PhysicalParams> points(3);
        points[1].width = 50;
        points[1].height = 50;
        points[2].nc = 2;
        points[2].v = 0.01;
        for (const auto& params : points) {
            const lcore::LeqaEstimator estimator(params);
            const lcore::EstimationEngine engine(params);
            expect_estimates_match(engine.estimate(profile),
                                   estimator.estimate_reference(graph, iig),
                                   spec.name);
        }
    }
}

TEST(EngineParity, ExactSqPathMatchesReference) {
    const auto ft = lb::make_ft_benchmark("gf2^16mult").circuit;
    const leqa::qodg::Qodg graph(ft);
    const leqa::iig::Iig iig(ft);
    const auto profile = lcore::CircuitProfile::build(graph, iig);
    lcore::LeqaOptions options;
    options.exact_sq = true; // every q up to Q, not just the first 20
    const lf::PhysicalParams params;
    const lcore::EstimationEngine engine(params, options);
    const lcore::LeqaEstimator estimator(params, options);
    expect_estimates_match(engine.estimate(profile),
                           estimator.estimate_reference(graph, iig), "gf2^16mult exact");
}

TEST(EngineParity, PipelineRunIsTheEngine) {
    // Pipeline::run and the engine on the same circuit's profile must agree
    // bit for bit: the pipeline has no estimation path of its own.
    const auto ft = lb::make_ft_benchmark("8bitadder").circuit;
    const leqa::qodg::Qodg graph(ft);
    const leqa::iig::Iig iig(ft);
    const lf::PhysicalParams params;
    leqa::pipeline::Pipeline pipe;
    const auto via_pipeline =
        pipe.run(leqa::pipeline::EstimationRequest(
                     leqa::pipeline::CircuitSource::from_bench("8bitadder")))
            .estimate;
    ASSERT_TRUE(via_pipeline.has_value());
    const auto via_engine =
        lcore::EstimationEngine(params).estimate(lcore::CircuitProfile::build(graph, iig));
    EXPECT_DOUBLE_EQ(via_pipeline->latency_us, via_engine.latency_us);
    EXPECT_DOUBLE_EQ(via_pipeline->l_cnot_avg_us, via_engine.l_cnot_avg_us);
    EXPECT_EQ(via_pipeline->critical_census.total_ops,
              via_engine.critical_census.total_ops);
}

TEST(Engine, ProfileCapturesCircuitInvariants) {
    const auto ft = lb::make_ft_benchmark("8bitadder").circuit;
    const leqa::qodg::Qodg graph(ft);
    const leqa::iig::Iig iig(ft);
    const auto profile = lcore::CircuitProfile::build(graph, iig);
    EXPECT_EQ(profile.num_qubits, iig.num_qubits());
    EXPECT_EQ(profile.num_ops, graph.num_ops());
    EXPECT_DOUBLE_EQ(profile.zone_area_b, iig.average_zone_area());
    EXPECT_GT(profile.d_uncongest_v, 0.0);
    std::size_t counted = 0;
    for (const auto count : profile.gate_counts) counted += count;
    EXPECT_EQ(counted, graph.num_ops());

    // d_uncongest_v really is the v-free factor: scaling v must scale the
    // estimate's d_uncongest inversely.
    lf::PhysicalParams slow;
    slow.v = 0.001;
    lf::PhysicalParams fast = slow;
    fast.v = 0.01;
    const auto d_slow =
        lcore::EstimationEngine(slow).estimate(profile).d_uncongest_us;
    const auto d_fast =
        lcore::EstimationEngine(fast).estimate(profile).d_uncongest_us;
    EXPECT_NEAR(d_slow / d_fast, 10.0, 1e-9);
}

TEST(Engine, ProfileRejectsGraphsOfTwoCircuits) {
    // An IIG with another qubit count than the QODG's comes from another
    // circuit; the profile refuses to mix them.
    const auto ft = lb::make_ft_benchmark("8bitadder").circuit;
    const leqa::qodg::Qodg graph(ft);
    const leqa::iig::Iig other(leqa::synth::ft_synthesize(lb::ham3()).circuit);
    ASSERT_NE(other.num_qubits(), graph.num_qubits());
    EXPECT_THROW((void)lcore::CircuitProfile::build(graph, other), leqa::util::InputError);
    EXPECT_NO_THROW((void)lcore::CircuitProfile::build(graph, leqa::iig::Iig(ft)));
}

TEST(Engine, RejectsDetachedProfile) {
    lcore::CircuitProfile orphan;
    const lcore::EstimationEngine engine(lf::PhysicalParams{});
    EXPECT_THROW((void)engine.estimate(orphan), leqa::util::InputError);
}
