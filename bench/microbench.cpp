/// \file microbench.cpp
/// \brief google-benchmark micro-benchmarks of LEQA's components, matching
///        the complexity analysis of Eq. 17 / the supplemental material:
///        O(|V| + |E|) graph construction, O(A) coverage grid, O(T*A*logQ)
///        expected-surface evaluation, O(|V| + |E|) critical path.
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "benchgen/gf2_mult.h"
#include "benchgen/suite.h"
#include "core/engine.h"
#include "core/leqa.h"
#include "fabric/params.h"
#include "iig/iig.h"
#include "parser/qasm.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "qspr/qspr.h"
#include "synth/ft_synth.h"

namespace {

using namespace leqa;

circuit::Circuit ft_mult(int n) {
    benchgen::Gf2MultSpec spec;
    spec.n = n;
    spec.form = benchgen::Gf2PolyForm::Auto;
    return synth::ft_synthesize(benchgen::gf2_mult(spec)).circuit;
}

void BM_QodgBuild(benchmark::State& state) {
    const auto circ = ft_mult(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        const qodg::Qodg graph(circ);
        benchmark::DoNotOptimize(graph.num_edges());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(circ.size()));
}
BENCHMARK(BM_QodgBuild)->Arg(8)->Arg(16)->Arg(32);

void BM_IigBuild(benchmark::State& state) {
    const auto circ = ft_mult(static_cast<int>(state.range(0)));
    for (auto _ : state) {
        const iig::Iig iig(circ);
        benchmark::DoNotOptimize(iig.num_edges());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(circ.size()));
}
BENCHMARK(BM_IigBuild)->Arg(8)->Arg(16)->Arg(32);

void BM_CriticalPath(benchmark::State& state) {
    const auto circ = ft_mult(static_cast<int>(state.range(0)));
    const qodg::Qodg graph(circ);
    const fabric::PhysicalParams params;
    const auto delays =
        graph.node_delays([&](circuit::GateKind kind) { return params.delay_us(kind); });
    for (auto _ : state) {
        const auto lp = graph.longest_path(delays);
        benchmark::DoNotOptimize(lp.length);
    }
}
BENCHMARK(BM_CriticalPath)->Arg(8)->Arg(16)->Arg(32);

void BM_CoverageGrid(benchmark::State& state) {
    const int side = static_cast<int>(state.range(0));
    for (auto _ : state) {
        double sum = 0.0;
        for (int x = 1; x <= side; ++x) {
            for (int y = 1; y <= side; ++y) {
                sum += core::LeqaEstimator::coverage_probability(x, y, side, side, 6);
            }
        }
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_CoverageGrid)->Arg(60)->Arg(100);

void BM_ExpectedSurfaces(benchmark::State& state) {
    const int terms = static_cast<int>(state.range(0));
    std::vector<double> coverage;
    for (int x = 1; x <= 60; ++x) {
        for (int y = 1; y <= 60; ++y) {
            coverage.push_back(core::LeqaEstimator::coverage_probability(x, y, 60, 60, 6));
        }
    }
    for (auto _ : state) {
        double sum = 0.0;
        for (int q = 1; q <= terms; ++q) {
            sum += core::LeqaEstimator::expected_surface(coverage, 768, q);
        }
        benchmark::DoNotOptimize(sum);
    }
}
BENCHMARK(BM_ExpectedSurfaces)->Arg(20)->Arg(100);

void BM_LeqaEndToEnd(benchmark::State& state) {
    const auto circ = ft_mult(static_cast<int>(state.range(0)));
    const qodg::Qodg graph(circ);
    const iig::Iig iig(circ);
    for (auto _ : state) {
        // A fresh profile and engine per call: the whole post-graph estimate.
        const auto estimate = core::EstimationEngine(fabric::PhysicalParams{})
                                  .estimate(core::CircuitProfile::build(graph, iig));
        benchmark::DoNotOptimize(estimate.latency_us);
    }
}
BENCHMARK(BM_LeqaEndToEnd)->Arg(16)->Arg(32);

void BM_QsprMap(benchmark::State& state) {
    const auto circ = ft_mult(static_cast<int>(state.range(0)));
    const qspr::QsprMapper mapper(fabric::PhysicalParams{});
    for (auto _ : state) {
        const auto result = mapper.map(circ);
        benchmark::DoNotOptimize(result.latency_us);
    }
}
BENCHMARK(BM_QsprMap)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void BM_QasmParse(benchmark::State& state) {
    const auto circ = ft_mult(16);
    const std::string text = parser::write_qasm(circ);
    for (auto _ : state) {
        const auto parsed = parser::parse_qasm(text);
        benchmark::DoNotOptimize(parsed.size());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_QasmParse);

// The pipeline-cache win the facade exists for: a fabric sweep re-estimates
// the same circuit at many parameter points.  Cold rebuilds the session
// (synthesis + QODG/IIG per iteration); warm reuses the cached
// intermediates, which is how sweep/calibrate/batch consumers run.
const std::vector<int> kSweepSides = {40, 52, 60, 72, 80};

void BM_PipelineSweepCold(benchmark::State& state) {
    benchgen::Gf2MultSpec spec;
    spec.n = static_cast<int>(state.range(0));
    spec.form = benchgen::Gf2PolyForm::Auto;
    const auto source = pipeline::CircuitSource::from_circuit(benchgen::gf2_mult(spec));
    for (auto _ : state) {
        pipeline::Pipeline pipe; // fresh session: synthesis + graphs rebuilt
        const auto sweep = pipe.sweep_fabric_sides(source, kSweepSides);
        benchmark::DoNotOptimize(sweep.best_index);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kSweepSides.size()));
}
BENCHMARK(BM_PipelineSweepCold)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

void BM_PipelineSweepWarm(benchmark::State& state) {
    benchgen::Gf2MultSpec spec;
    spec.n = static_cast<int>(state.range(0));
    spec.form = benchgen::Gf2PolyForm::Auto;
    pipeline::Pipeline pipe;
    const auto source = pipeline::CircuitSource::from_circuit(benchgen::gf2_mult(spec));
    (void)pipe.sweep_fabric_sides(source, kSweepSides); // populate the cache
    for (auto _ : state) {
        const auto sweep = pipe.sweep_fabric_sides(source, kSweepSides);
        benchmark::DoNotOptimize(sweep.best_index);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(kSweepSides.size()));
}
BENCHMARK(BM_PipelineSweepWarm)->Arg(16)->Arg(64)->Unit(benchmark::kMillisecond);

// Per-parameter-point estimation cost on the acceptance bar's 50x50 fabric.
// Seed path: the pre-refactor evaluation (full a x b coverage table, three
// lgammas + two logs + exp per cell per q term).  Staged path: the
// CircuitProfile is built once outside the loop and each point pays only
// the compressed-coverage + Eq. 18 parameter stage plus the CSR critical
// path.  The ratio of these two benchmarks is the sweep speedup.
fabric::PhysicalParams fifty_by_fifty() {
    fabric::PhysicalParams params;
    params.width = 50;
    params.height = 50;
    return params;
}

void BM_PerPointSeed(benchmark::State& state) {
    const auto circ = ft_mult(static_cast<int>(state.range(0)));
    const qodg::Qodg graph(circ);
    const iig::Iig iig(circ);
    const core::LeqaEstimator estimator(fifty_by_fifty());
    for (auto _ : state) {
        const auto estimate = estimator.estimate_reference(graph, iig);
        benchmark::DoNotOptimize(estimate.latency_us);
    }
}
BENCHMARK(BM_PerPointSeed)->Arg(16)->Arg(64);

void BM_PerPointStaged(benchmark::State& state) {
    const auto circ = ft_mult(static_cast<int>(state.range(0)));
    const qodg::Qodg graph(circ);
    const iig::Iig iig(circ);
    const auto profile = core::CircuitProfile::build(graph, iig);
    // Alternate the geometry with an engine per iteration, so each pays the
    // full parameter stage (a fabric-side sweep's cost).
    fabric::PhysicalParams jiggled = fifty_by_fifty();
    jiggled.height = 49;
    bool flip = false;
    for (auto _ : state) {
        const core::EstimationEngine engine(flip ? jiggled : fifty_by_fifty());
        flip = !flip;
        const auto estimate = engine.estimate(profile);
        benchmark::DoNotOptimize(estimate.latency_us);
    }
}
BENCHMARK(BM_PerPointStaged)->Arg(16)->Arg(64);

void BM_PerPointStagedMemoHit(benchmark::State& state) {
    const auto circ = ft_mult(static_cast<int>(state.range(0)));
    const qodg::Qodg graph(circ);
    const iig::Iig iig(circ);
    const auto profile = core::CircuitProfile::build(graph, iig);
    const core::EstimationEngine engine(fifty_by_fifty());
    // Alternate v at fixed geometry through one-point batches: the E[S_q]
    // slot hits (a v / Nc sweep or the calibrator's search), leaving the
    // congestion algebra + critical path.
    const fabric::PhysicalParams base = fifty_by_fifty();
    const core::ParameterPoint points[2] = {{base.nc, base.v}, {base.nc, base.v * 2.0}};
    bool flip = false;
    for (auto _ : state) {
        const auto estimates = engine.estimate_batch(profile, {&points[flip ? 1 : 0], 1});
        flip = !flip;
        benchmark::DoNotOptimize(estimates.front().latency_us);
    }
}
BENCHMARK(BM_PerPointStagedMemoHit)->Arg(16)->Arg(64);

// --- fixture-style harness --------------------------------------------------
// Per-op benchmarks below share expensive setup through benchmark::Fixture
// subclasses (SetUp builds the inputs once per run; the timed loop measures
// only the operation).  New hot paths get a per-op ns number by adding one
// BENCHMARK_DEFINE_F / BENCHMARK_REGISTER_F pair against an existing
// fixture instead of re-rolling the setup.

/// Shared coverage histogram + zone-count inputs of the E[S_q] kernels.
class SurfacesFixture : public benchmark::Fixture {
public:
    void SetUp(const benchmark::State&) override {
        histogram = fabric::CoverageHistogram::build(60, 60, 6);
    }

    fabric::CoverageHistogram histogram;
    static constexpr long long kZones = 768;
};

// The scalar Eq. 18 evaluation: one BinomialTermRecursion object per
// histogram bin, advanced bin-by-bin per q.
BENCHMARK_DEFINE_F(SurfacesFixture, BM_SurfacesScalar)(benchmark::State& state) {
    const long long terms = state.range(0);
    for (auto _ : state) {
        const auto surfaces =
            core::EstimationEngine::expected_surfaces_reference(histogram, kZones,
                                                                terms);
        benchmark::DoNotOptimize(surfaces.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * terms *
                            static_cast<std::int64_t>(histogram.bins().size()));
}
BENCHMARK_REGISTER_F(SurfacesFixture, BM_SurfacesScalar)->Arg(20)->Arg(100);

// The SoA batch evaluation: all bins advance in lockstep through one flat
// multiply/renormalize loop (mathx::BinomialRowBatch).
BENCHMARK_DEFINE_F(SurfacesFixture, BM_SurfacesBatched)(benchmark::State& state) {
    const long long terms = state.range(0);
    for (auto _ : state) {
        const auto surfaces =
            core::EstimationEngine::expected_surfaces(histogram, kZones, terms);
        benchmark::DoNotOptimize(surfaces.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * terms *
                            static_cast<std::int64_t>(histogram.bins().size()));
}
BENCHMARK_REGISTER_F(SurfacesFixture, BM_SurfacesBatched)->Arg(20)->Arg(100);

/// Prebuilt profile + fixed-geometry (Nc, v) axis for the whole-parameter-
/// stage comparison (the sweep_perf batched_vs_scalar section's shape).
class ParameterAxisFixture : public benchmark::Fixture {
public:
    void SetUp(const benchmark::State&) override {
        if (!graph) {
            circ = ft_mult(16);
            graph = std::make_unique<qodg::Qodg>(circ);
            interactions = std::make_unique<iig::Iig>(circ);
            profile = core::CircuitProfile::build(*graph, *interactions);
        }
        points.clear();
        for (int nc = 2; nc <= 9; ++nc) {
            for (const double v : {0.0005, 0.001, 0.002, 0.004}) {
                points.push_back({nc, v});
            }
        }
    }

    circuit::Circuit circ;
    std::unique_ptr<qodg::Qodg> graph;
    std::unique_ptr<iig::Iig> interactions;
    core::CircuitProfile profile;
    std::vector<core::ParameterPoint> points;
};

BENCHMARK_DEFINE_F(ParameterAxisFixture, BM_ParameterAxisScalar)
(benchmark::State& state) {
    const core::EstimationEngine engine(fifty_by_fifty());
    for (auto _ : state) {
        double sum = 0.0;
        for (const core::ParameterPoint& point : points) {
            sum += engine.estimate_batch(profile, {&point, 1}).front().latency_us;
        }
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(points.size()));
}
BENCHMARK_REGISTER_F(ParameterAxisFixture, BM_ParameterAxisScalar)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_DEFINE_F(ParameterAxisFixture, BM_ParameterAxisBatched)
(benchmark::State& state) {
    core::EstimationEngine engine(fifty_by_fifty());
    for (auto _ : state) {
        const auto estimates = engine.estimate_batch(profile, points);
        benchmark::DoNotOptimize(estimates.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(points.size()));
}
BENCHMARK_REGISTER_F(ParameterAxisFixture, BM_ParameterAxisBatched)
    ->Unit(benchmark::kMillisecond);

void BM_FtSynthesis(benchmark::State& state) {
    benchgen::Gf2MultSpec spec;
    spec.n = static_cast<int>(state.range(0));
    spec.form = benchgen::Gf2PolyForm::Auto;
    const auto circ = benchgen::gf2_mult(spec);
    for (auto _ : state) {
        const auto result = synth::ft_synthesize(circ);
        benchmark::DoNotOptimize(result.circuit.size());
    }
}
BENCHMARK(BM_FtSynthesis)->Arg(16)->Arg(32);

} // namespace

BENCHMARK_MAIN();
