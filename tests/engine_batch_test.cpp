// Tests for the batched SoA parameter stage: the multi-lane Eq. 18
// recursion (mathx::BinomialRowBatch), the SoA E[S_q] evaluation, the
// engine's one E[S_q] slot, the lane-blocked critical-path pass, and
// EstimationEngine::estimate_batch itself.
//
// The parity bar is BIT-IDENTITY, not a tolerance: the SoA recursion
// renormalizes by exact powers of two (the same rescaling frexp applies in
// the scalar path), the batch reduction accumulates in the scalar's bin
// order, and the lane-blocked longest path performs the scalar relaxation
// per lane — so every field of a batched estimate must equal the scalar
// engine's double for double.  The scalar engine is a one-point batch at
// lane width 1, so these tests pin that a point's result does not depend
// on its block; qodg_test and property_test check the lane kernel itself
// against the push-based longest path.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "benchgen/suite.h"
#include "core/engine.h"
#include "core/explore.h"
#include "core/leqa.h"
#include "core/sweep.h"
#include "fabric/topology.h"
#include "iig/iig.h"
#include "mathx/binomial.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "synth/ft_synth.h"
#include "util/error.h"

namespace lc = leqa::circuit;
namespace lcore = leqa::core;
namespace lf = leqa::fabric;
namespace lm = leqa::mathx;
namespace lp = leqa::pipeline;
namespace lu = leqa::util;

namespace {

struct ProfiledCircuit {
    lc::Circuit ft;
    std::unique_ptr<leqa::qodg::Qodg> graph;
    std::unique_ptr<leqa::iig::Iig> iig;
    lcore::CircuitProfile profile;
};

ProfiledCircuit profiled(const std::string& bench) {
    ProfiledCircuit out{
        leqa::synth::ft_synthesize(lp::parse_source("bench:" + bench).load()).circuit,
        nullptr, nullptr, {}};
    out.graph = std::make_unique<leqa::qodg::Qodg>(out.ft);
    out.iig = std::make_unique<leqa::iig::Iig>(out.ft);
    out.profile = lcore::CircuitProfile::build(*out.graph, *out.iig);
    return out;
}

/// Scalar reference for one batch point: a fresh engine at the overridden
/// (Nc, v), so no state is shared with the batch engine under test.
leqa::core::LeqaEstimate scalar_estimate(const lcore::CircuitProfile& profile,
                                         const lf::PhysicalParams& base, int nc,
                                         double v) {
    lf::PhysicalParams params = base;
    params.nc = nc;
    params.v = v;
    const lcore::EstimationEngine engine(params);
    return engine.estimate(profile);
}

/// Every field of the estimate, compared bit for bit (EXPECT_EQ on doubles
/// is exact; NaN-latency points are compared by bit pattern instead).
void expect_estimates_identical(const leqa::core::LeqaEstimate& batched,
                                const leqa::core::LeqaEstimate& scalar,
                                const std::string& what) {
    if (std::isnan(scalar.latency_us)) {
        EXPECT_TRUE(std::isnan(batched.latency_us)) << what;
    } else {
        EXPECT_EQ(batched.latency_us, scalar.latency_us) << what;
    }
    EXPECT_EQ(batched.zone_area_b, scalar.zone_area_b) << what;
    EXPECT_EQ(batched.d_uncongest_us, scalar.d_uncongest_us) << what;
    EXPECT_EQ(batched.l_cnot_avg_us, scalar.l_cnot_avg_us) << what;
    EXPECT_EQ(batched.l_one_qubit_avg_us, scalar.l_one_qubit_avg_us) << what;
    EXPECT_EQ(batched.covered_area, scalar.covered_area) << what;
    EXPECT_EQ(batched.e_sq, scalar.e_sq) << what;
    EXPECT_EQ(batched.d_q, scalar.d_q) << what;
    EXPECT_EQ(batched.critical_census.by_kind, scalar.critical_census.by_kind) << what;
    EXPECT_EQ(batched.critical_census.total_ops, scalar.critical_census.total_ops)
        << what;
    EXPECT_EQ(batched.critical_cnots, scalar.critical_cnots) << what;
    EXPECT_EQ(batched.critical_one_qubit, scalar.critical_one_qubit) << what;
    EXPECT_EQ(batched.critical_gate_delay_us, scalar.critical_gate_delay_us) << what;
    EXPECT_EQ(batched.num_qubits, scalar.num_qubits) << what;
    EXPECT_EQ(batched.num_ops, scalar.num_ops) << what;
}

/// A mixed (Nc, v) axis long enough to exercise full lane blocks plus a
/// ragged tail: 10 points = 8 + 2, 33 = 32 + 1, 40 = 32 + 8.  Longer axes
/// extend the 10-point one with distinct points.
std::vector<lcore::ParameterPoint> mixed_axis(std::size_t length = 10) {
    std::vector<lcore::ParameterPoint> points;
    for (const int nc : {2, 5, 9}) {
        for (const double v : {2e-4, 1e-3, 5e-3}) {
            points.push_back({nc, v});
        }
    }
    points.push_back({1, 1.0});
    for (std::size_t i = points.size(); i < length; ++i) {
        points.push_back({1 + static_cast<int>(i % 7), 1e-4 * static_cast<double>(i)});
    }
    return points;
}

} // namespace

// ------------------------------------------- SoA Eq. 18 recursion batch ----

TEST(BinomialRowBatch, LanesMatchScalarRecursionBitwise) {
    const std::vector<double> probabilities = {0.004, 0.25, 0.5, 0.97, 1e-7};
    const std::int64_t n = 768;
    lm::BinomialRowBatch batch(n, probabilities);
    std::vector<lm::BinomialTermRecursion> rows;
    for (const double p : probabilities) rows.emplace_back(n, p);

    std::vector<double> values(probabilities.size());
    for (std::int64_t q = 0; q <= 80; ++q) {
        batch.values(values);
        for (std::size_t lane = 0; lane < rows.size(); ++lane) {
            EXPECT_EQ(values[lane], rows[lane].value())
                << "lane " << lane << " q " << q;
            EXPECT_EQ(batch.value(lane), rows[lane].value())
                << "lane " << lane << " q " << q;
        }
        batch.advance();
        for (lm::BinomialTermRecursion& row : rows) row.advance();
    }
}

TEST(BinomialRowBatch, DegenerateLanesAreExact) {
    // p == 0 flows through the recursion naturally (ratio 0); p == 1 would
    // blow up the ratio and is overridden with the exact indicator.
    const std::vector<double> probabilities = {0.0, 1.0, 0.5};
    const std::int64_t n = 6;
    lm::BinomialRowBatch batch(n, probabilities);
    for (std::int64_t q = 0; q <= n + 2; ++q) {
        EXPECT_EQ(batch.value(0), q == 0 ? 1.0 : 0.0) << "p=0 lane at q " << q;
        EXPECT_EQ(batch.value(1), q == n ? 1.0 : 0.0) << "p=1 lane at q " << q;
        batch.advance();
    }
}

TEST(BinomialRowBatch, SurvivesUnderflowingStart) {
    // Same bar as the scalar recursion: a 2^-4000 start must recover the
    // mid-range terms bit-identically to the scalar trajectory.
    const std::int64_t n = 4000;
    lm::BinomialRowBatch batch(n, std::vector<double>{0.5});
    lm::BinomialTermRecursion row(n, 0.5);
    for (std::int64_t q = 0; q < 2000; ++q) {
        batch.advance();
        row.advance();
    }
    EXPECT_GT(row.value(), 0.0);
    EXPECT_EQ(batch.value(0), row.value());
}

TEST(BinomialRowBatch, EmptyLaneSetIsValid) {
    lm::BinomialRowBatch batch(10, std::vector<double>{});
    EXPECT_EQ(batch.lanes(), 0u);
    batch.advance(); // no lanes to step, still bookkeeps q
    EXPECT_EQ(batch.q(), 1);
}

// ---------------------------------------------------- SoA E[S_q] kernel ----

TEST(ExpectedSurfacesSoA, MatchesReferenceAcrossHistograms) {
    const struct {
        lf::CoverageHistogram histogram;
        const char* name;
    } cases[] = {
        {lf::CoverageHistogram::build(60, 60, 6), "grid 60x60 s=6"},
        {lf::CoverageHistogram::build(50, 49, 7), "grid 50x49 s=7"},
        // Zone covers the fabric: every bin probability is exactly 1 (the
        // p == 1 indicator lanes).
        {lf::CoverageHistogram::build(5, 5, 5), "grid 5x5 s=5"},
        {lf::make_topology(lf::TopologyKind::Torus, 32, 32)->coverage_histogram(5),
         "torus 32x32 s=5"},
        {lf::make_topology(lf::TopologyKind::Line, 900, 1)->coverage_histogram(4),
         "line 900x1 s=4"},
    };
    for (const auto& test_case : cases) {
        for (const long long q_total : {0LL, 1LL, 96LL, 768LL}) {
            const long long terms = std::min<long long>(q_total, 20);
            const std::vector<double> batched = lcore::EstimationEngine::expected_surfaces(
                test_case.histogram, q_total, terms);
            const std::vector<double> reference =
                lcore::EstimationEngine::expected_surfaces_reference(test_case.histogram,
                                                                     q_total, terms);
            ASSERT_EQ(batched.size(), reference.size()) << test_case.name;
            for (std::size_t i = 0; i < batched.size(); ++i) {
                EXPECT_EQ(batched[i], reference[i])
                    << test_case.name << " q_total " << q_total << " q " << i + 1;
            }
        }
    }
}

// ----------------------------------------------------- estimate_batch ------

TEST(EstimateBatch, MatchesScalarAcrossTopologies) {
    const ProfiledCircuit circuit = profiled("8bitadder");
    for (const std::size_t length : {10, 33, 40}) {
        const std::vector<lcore::ParameterPoint> points = mixed_axis(length);
        for (const lf::TopologyKind kind :
             {lf::TopologyKind::Grid, lf::TopologyKind::Torus, lf::TopologyKind::Line}) {
            lf::PhysicalParams base;
            base.topology = kind;
            if (kind == lf::TopologyKind::Line) {
                base.width = 60 * 60;
                base.height = 1;
            }
            const lcore::EstimationEngine engine(base);
            const std::vector<leqa::core::LeqaEstimate> batched =
                engine.estimate_batch(circuit.profile, points);
            ASSERT_EQ(batched.size(), points.size());
            for (std::size_t i = 0; i < points.size(); ++i) {
                expect_estimates_identical(
                    batched[i],
                    scalar_estimate(circuit.profile, base, points[i].nc, points[i].v),
                    "axis " + std::to_string(length) + " topology " +
                        std::to_string(static_cast<int>(kind)) + " point " +
                        std::to_string(i));
            }
        }
    }
}

TEST(EstimateBatch, DegenerateBatchSizes) {
    const ProfiledCircuit circuit = profiled("ham3");
    const lf::PhysicalParams base;
    const lcore::EstimationEngine engine(base);

    const std::vector<lcore::ParameterPoint> empty;
    EXPECT_TRUE(engine.estimate_batch(circuit.profile, empty).empty());

    const std::vector<lcore::ParameterPoint> single = {{7, 3e-3}};
    const std::vector<leqa::core::LeqaEstimate> batched =
        engine.estimate_batch(circuit.profile, single);
    ASSERT_EQ(batched.size(), 1u);
    expect_estimates_identical(batched[0],
                               scalar_estimate(circuit.profile, base, 7, 3e-3),
                               "single-point batch");
}

TEST(EstimateBatch, SubnormalSpeedMatchesScalar) {
    // The explore edge case routed through the batch path: a subnormal v
    // overflows d_uncongest to infinity; the batch must produce the exact
    // non-finite latency the scalar engine produces.
    const ProfiledCircuit circuit = profiled("ham3");
    const lf::PhysicalParams base;
    const lcore::EstimationEngine engine(base);
    const std::vector<lcore::ParameterPoint> points = {{5, 1e-310}, {5, 1e-3}};
    const std::vector<leqa::core::LeqaEstimate> batched =
        engine.estimate_batch(circuit.profile, points);
    ASSERT_EQ(batched.size(), 2u);
    EXPECT_FALSE(std::isfinite(batched[0].latency_us));
    EXPECT_TRUE(std::isfinite(batched[1].latency_us));
    for (std::size_t i = 0; i < points.size(); ++i) {
        expect_estimates_identical(
            batched[i],
            scalar_estimate(circuit.profile, base, points[i].nc, points[i].v),
            "subnormal batch point " + std::to_string(i));
    }
}

TEST(EstimateBatch, RejectsInvalidPoints) {
    const ProfiledCircuit circuit = profiled("ham3");
    const lcore::EstimationEngine engine(lf::PhysicalParams{});
    const std::vector<lcore::ParameterPoint> bad_nc = {{0, 1e-3}};
    EXPECT_THROW((void)engine.estimate_batch(circuit.profile, bad_nc),
                 lu::InputError);
    const std::vector<lcore::ParameterPoint> bad_v = {{5, 0.0}};
    EXPECT_THROW((void)engine.estimate_batch(circuit.profile, bad_v),
                 lu::InputError);
}

TEST(EstimateBatch, BeforePointRunsOncePerPointAndCanAbort) {
    const ProfiledCircuit circuit = profiled("ham3");
    const lcore::EstimationEngine engine(lf::PhysicalParams{});
    const std::vector<lcore::ParameterPoint> points = mixed_axis();

    std::size_t calls = 0;
    (void)engine.estimate_batch(circuit.profile, points, [&] { ++calls; });
    EXPECT_EQ(calls, points.size());

    struct Cancel {};
    std::size_t until_cancel = 0;
    EXPECT_THROW((void)engine.estimate_batch(circuit.profile, points,
                                             [&] {
                                                 if (++until_cancel == 3) throw Cancel{};
                                             }),
                 Cancel);
    EXPECT_EQ(until_cancel, 3u);
}

// ------------------------------------------------------ one E[S_q] slot --

TEST(SurfaceSlot, FixedGeometryAxisComputesSurfacesOnce) {
    // A fixed-geometry engine evaluating a v/Nc axis as separate one-point
    // batches (the calibrator's golden-section shape): E[S_q] is computed
    // once, every later point hits the slot, and each result equals a
    // fresh engine's at that point's params.
    const ProfiledCircuit circuit = profiled("8bitadder");
    const lf::PhysicalParams params;
    const lcore::EstimationEngine engine(params);
    const std::vector<lcore::ParameterPoint> points = mixed_axis();
    for (std::size_t i = 0; i < points.size(); ++i) {
        expect_estimates_identical(
            engine.estimate_batch(circuit.profile, {&points[i], 1}).front(),
            scalar_estimate(circuit.profile, params, points[i].nc, points[i].v),
            "point " + std::to_string(i));
    }
    const lcore::SurfaceCacheStats& stats = engine.surface_cache_stats();
    EXPECT_EQ(stats.recomputes, 1u);
    EXPECT_EQ(stats.hits, points.size() - 1);
    EXPECT_EQ(stats.evictions, 0u);

    // A second profile on the same engine replaces the held vector.
    const ProfiledCircuit other = profiled("ham3");
    (void)engine.estimate(other.profile);
    EXPECT_EQ(stats.recomputes, 2u);
    EXPECT_EQ(stats.evictions, 1u);
}

// ------------------------------------------- batch through explore/sweeps --

TEST(EstimateBatch, ExploreMatchesScalarEngineLoop) {
    // evaluate_configurations now feeds whole geometry groups to
    // estimate_batch; the published grid must equal a hand-rolled scalar
    // loop over the same configurations.
    const ProfiledCircuit circuit = profiled("8bitadder");
    lf::PhysicalParams base;
    lcore::ExplorationSpec spec;
    spec.topologies = {lf::TopologyKind::Grid, lf::TopologyKind::Torus};
    spec.sides = {8, 10};
    spec.capacities = {3, 5};
    spec.speeds = {5e-4, 1e-3, 2e-3};
    spec.threads = 1;

    const std::vector<lf::PhysicalParams> configurations =
        lcore::exploration_configurations(circuit.profile.num_qubits, base, spec);
    const lcore::ExplorationResult result = lcore::evaluate_configurations(
        circuit.profile, configurations, {}, spec.threads, {});

    ASSERT_EQ(result.points.size(), configurations.size());
    for (std::size_t i = 0; i < configurations.size(); ++i) {
        const lcore::EstimationEngine engine(configurations[i]);
        expect_estimates_identical(result.points[i].estimate,
                                   engine.estimate(circuit.profile),
                                   "explore point " + std::to_string(i));
    }
}
