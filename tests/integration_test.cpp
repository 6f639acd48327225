// Integration tests: the full pipeline (generate -> parse round-trip -> FT
// synthesis -> QODG/IIG -> QSPR actual vs LEQA estimate) on real suite
// benchmarks, exercising every module together the way the benches do.
#include <gtest/gtest.h>

#include "benchgen/gf2_mult.h"
#include "benchgen/suite.h"
#include "estimate.h"
#include "fabric/params.h"
#include "parser/qasm.h"
#include "parser/real.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "qspr/qspr.h"
#include "sim/classical.h"
#include "synth/ft_synth.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace lb = leqa::benchgen;
namespace lc = leqa::circuit;
namespace lf = leqa::fabric;
namespace lp = leqa::parser;
namespace lpipe = leqa::pipeline;
namespace lq = leqa::qspr;
namespace ls = leqa::synth;
namespace lt = leqa::test_support;

TEST(Integration, BenchmarkSurvivesNetlistRoundTrip) {
    // generate -> write qasm -> parse -> FT synth must equal the direct
    // path; the same through .real (pre-FT circuits are classical).
    const auto original = lb::make_benchmark("gf2^16mult");
    const auto via_qasm = lp::parse_qasm(lp::write_qasm(original));
    EXPECT_TRUE(original.same_structure(via_qasm));
    const auto via_real = lp::parse_real(lp::write_real(original));
    EXPECT_TRUE(original.same_structure(via_real));

    const auto direct = ls::ft_synthesize(original).circuit;
    const auto roundtrip = ls::ft_synthesize(via_qasm).circuit;
    EXPECT_TRUE(direct.same_structure(roundtrip));
}

TEST(Integration, EstimateWithinBandOfActualOnSmallSuite) {
    // The Table 2 claim in miniature: after calibrating v on the three
    // smallest benchmarks, LEQA must track QSPR within a conservative 10%
    // on every benchmark up to 7k ops (the bench covers the full suite).
    lpipe::Pipeline pipe; // Table 1 fabric, default QSPR mapper
    const auto calibration =
        pipe.calibrate({lpipe::CircuitSource::from_bench("8bitadder"),
                        lpipe::CircuitSource::from_bench("gf2^16mult"),
                        lpipe::CircuitSource::from_bench("hwb15ps")});
    EXPECT_LT(calibration.mean_abs_rel_error, 0.05);
    pipe.apply_calibration(calibration);

    for (const auto& spec : lb::paper_suite()) {
        if (spec.paper_ops > 7000) continue;
        const lpipe::EstimationResult both = pipe.run(lpipe::EstimationRequest(
            lpipe::CircuitSource::from_bench(spec.name), lpipe::RunMode::Both));
        EXPECT_NEAR(both.estimate->latency_us / both.mapping->latency_us, 1.0, 0.10)
            << spec.name;
    }
}

TEST(Integration, EstimatorUsesMappedCriticalPath) {
    // Algorithm 1 line 19: the critical path must be computed AFTER adding
    // routing latencies.  Build a circuit where the op-delay-only critical
    // path differs from the routing-aware one: a chain of CNOTs (cheap op,
    // expensive routing) racing a chain of T gates (expensive op, cheap
    // routing).
    lc::Circuit circ(12);
    // Branch A: 6 T gates on qubit 0 (65,640 us of gate delay).
    for (int i = 0; i < 6; ++i) circ.t(0);
    // Branch B: 12 CNOTs in a chain over qubits 1..11 with rich interaction
    // so routing latency is material (59,160 us gate delay + routing).
    for (int i = 0; i < 12; ++i) {
        circ.cnot(static_cast<lc::Qubit>(1 + (i % 10)),
                  static_cast<lc::Qubit>(2 + (i % 10)));
    }
    lf::PhysicalParams slow_routing;
    slow_routing.v = 1e-4; // makes L_CNOT large
    const auto slow = lt::estimate(circ, slow_routing);
    lf::PhysicalParams fast_routing;
    fast_routing.v = 1.0; // routing nearly free
    const auto fast = lt::estimate(circ, fast_routing);
    // With slow routing the CNOT chain dominates; with fast routing the
    // critical path can shift toward the T chain.  At minimum, the CNOT
    // count on the critical path must not increase when routing gets fast.
    EXPECT_GE(slow.critical_cnots, fast.critical_cnots);
    EXPECT_GT(slow.latency_us, fast.latency_us);
}

TEST(Integration, FabricSizeTrendAgreesBetweenTools) {
    // The fabric_sizer use case: both tools should agree that a cramped
    // fabric is slower than a comfortable one.
    const auto ft = lb::make_ft_benchmark("8bitadder").circuit; // 24 qubits
    lf::PhysicalParams cramped;
    cramped.width = 5;
    cramped.height = 5;
    lf::PhysicalParams comfy;
    comfy.width = 30;
    comfy.height = 30;
    const double actual_cramped = lq::QsprMapper(cramped).map(ft).latency_us;
    const double actual_comfy = lq::QsprMapper(comfy).map(ft).latency_us;
    const double est_cramped = lt::estimate(ft, cramped).latency_us;
    const double est_comfy = lt::estimate(ft, comfy).latency_us;
    EXPECT_GE(actual_cramped, actual_comfy * 0.999);
    EXPECT_GE(est_cramped, est_comfy * 0.999);
}

TEST(Integration, SuiteBenchmarksAreFtCleanAndSized) {
    // Every suite circuit must synthesize to a valid FT netlist whose size
    // matches the paper (exactly for gf2/surrogates; adder is constructive).
    for (const auto& spec : lb::paper_suite()) {
        if (spec.paper_ops > 70000) continue; // keep runtime modest
        const auto ft = lb::make_ft_benchmark(spec.name);
        EXPECT_TRUE(ft.circuit.is_ft()) << spec.name;
        EXPECT_EQ(ft.circuit.num_qubits(), spec.paper_qubits) << spec.name;
        if (spec.kind != lb::BenchmarkKind::Adder) {
            EXPECT_EQ(ft.circuit.size(), spec.paper_ops) << spec.name;
        }
        // All suite circuits fit the paper's 60x60 fabric.
        EXPECT_LE(ft.circuit.num_qubits(), 3600u) << spec.name;
    }
}

TEST(Integration, ClassicalBenchmarksStayFunctionalThroughSynthesis) {
    // The gf2 multiplier must still compute the right product after the
    // Toffoli-to-FT stage is round-tripped through keep_toffoli mode (the
    // FT network itself is verified at the unitary level in synth tests).
    const auto circ = lb::make_benchmark("gf2^16mult");
    ls::FtSynthOptions keep;
    keep.keep_toffoli = true;
    const auto staged = ls::ft_synthesize(circ, keep).circuit;
    EXPECT_TRUE(staged.is_classical());
    leqa::util::Rng rng(8);
    for (int trial = 0; trial < 5; ++trial) {
        const std::uint64_t a = rng.next() & 0xFFFF;
        const std::uint64_t b = rng.next() & 0xFFFF;
        leqa::sim::BasisState state(staged.num_qubits());
        state.set_slice(0, 16, a);
        state.set_slice(16, 16, b);
        leqa::sim::run_classical(staged, state);
        EXPECT_EQ(state.slice(32, 16),
                  lb::gf2_mult_reference(16, lb::Gf2PolyForm::Pentanomial, a, b));
    }
}

TEST(Integration, EstimatorAndMapperShareCriticalFloor) {
    // Both tools bound the latency from below by the pure gate-delay
    // critical path (no routing model can make a circuit faster).
    const auto ft = lb::make_ft_benchmark("hwb15ps").circuit;
    const lf::PhysicalParams params;
    const leqa::qodg::Qodg graph(ft);
    const auto delays = graph.node_delays(
        [&](lc::GateKind kind) { return params.delay_us(kind); });
    const double floor_us = graph.longest_path(delays).length;

    EXPECT_GE(lq::QsprMapper(params).map(ft).latency_us, floor_us * 0.9999);
    EXPECT_GE(lt::estimate(ft, params).latency_us, floor_us * 0.9999);
}

TEST(Integration, LeqaRuntimeFarBelowQsprOnMidSize) {
    // The Table 3 claim in miniature (absolute runtimes are noisy in CI,
    // so only a coarse factor is asserted).
    const auto ft = lb::make_ft_benchmark("gf2^50mult").circuit; // 37k ops
    const lf::PhysicalParams params;
    leqa::util::Stopwatch qspr_clock;
    (void)lq::QsprMapper(params).map(ft);
    const double qspr_s = qspr_clock.seconds();
    leqa::util::Stopwatch leqa_clock;
    (void)lt::estimate(ft, params);
    const double leqa_s = leqa_clock.seconds();
    EXPECT_GT(qspr_s / leqa_s, 3.0);
}
