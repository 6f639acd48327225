// Tests for the pipeline facade: source resolution semantics, intermediate
// caching across sweeps and batches, batch determinism vs sequential runs,
// netlist files streamed into the QODG's tape, and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "benchgen/suite.h"
#include "parser/io.h"
#include "parser/openqasm.h"
#include "parser/qasm.h"
#include "pipeline/pipeline.h"
#include "report/report.h"
#include "util/args.h"
#include "util/error.h"

namespace lp = leqa::pipeline;
namespace lf = leqa::fabric;
namespace lcore = leqa::core;
using leqa::util::InputError;

namespace {

/// RAII temp directory for path-resolution tests.
class TempDir {
public:
    TempDir() {
        path_ = std::filesystem::temp_directory_path() /
                ("leqa_pipeline_test_" + std::to_string(::getpid()));
        std::filesystem::create_directories(path_);
    }
    ~TempDir() {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }
    [[nodiscard]] std::string file(const std::string& name) const {
        return (path_ / name).string();
    }

private:
    std::filesystem::path path_;
};

void write_text(const std::string& path, const std::string& text) {
    std::ofstream out(path);
    out << text;
}

} // namespace

// ---------------------------------------------------------------- sources --

TEST(CircuitSource, BenchNamespaceResolvesSuite) {
    const lp::CircuitSource source = lp::parse_source("bench:ham3");
    EXPECT_EQ(source.kind(), lp::CircuitSource::Kind::Bench);
    const auto circ = source.load();
    EXPECT_EQ(circ.num_qubits(), 3u);
}

TEST(CircuitSource, ExistingFileBeatsBenchmarkName) {
    // A local file named like a suite benchmark must resolve to the file,
    // not be shadowed by the generated suite (the historical ambiguity).
    TempDir dir;
    const std::string path = dir.file("ham3");
    write_text(path, leqa::parser::write_qasm(leqa::benchgen::make_benchmark("ham15")));

    const lp::CircuitSource source = lp::parse_source(path);
    EXPECT_EQ(source.kind(), lp::CircuitSource::Kind::Path);
    // ham15 has 15 qubits; the suite's ham3 has 3.  The file wins.
    EXPECT_EQ(leqa::parser::load_netlist(source.spec()).num_qubits(), 15u);
}

TEST(CircuitSource, BareSuiteNameIsAnErrorWithHint) {
    try {
        (void)lp::parse_source("gf2^16mult");
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("bench:gf2^16mult"), std::string::npos);
    }
}

TEST(CircuitSource, UnknownBenchNameThrows) {
    EXPECT_THROW((void)lp::parse_source("bench:nosuchbench"), InputError);
    EXPECT_THROW((void)lp::CircuitSource::from_bench("nosuchbench"), InputError);
}

TEST(ParamsFromArgs, RejectsIntegersOutsideInt) {
    // 4294967356 = 2^32 + 60 and 4294967301 = 2^32 + 5 once wrapped to 60
    // and 5 when narrowed.
    const auto params_of = [](std::vector<const char*> argv) {
        leqa::util::ArgParser parser("test");
        lp::add_param_options(parser);
        argv.insert(argv.begin(), "leqa_cli");
        EXPECT_TRUE(parser.parse(static_cast<int>(argv.size()), argv.data()));
        return lp::params_from_args(parser);
    };
    EXPECT_THROW((void)params_of({"--fabric", "4294967356x60"}), InputError);
    EXPECT_THROW((void)params_of({"--fabric", "60x4294967356"}), InputError);
    EXPECT_THROW((void)params_of({"--nc", "4294967301"}), InputError);
    const lf::PhysicalParams params = params_of({"--fabric", "40x30", "--nc", "3"});
    EXPECT_EQ(params.width, 40);
    EXPECT_EQ(params.height, 30);
    EXPECT_EQ(params.nc, 3);
}

TEST(CircuitSource, InlineFingerprintDistinguishesCircuits) {
    const auto a = lp::CircuitSource::from_circuit(leqa::benchgen::ham3());
    const auto b = lp::CircuitSource::from_circuit(leqa::benchgen::ham3());
    leqa::circuit::Circuit other = leqa::benchgen::ham3();
    other.x(0);
    const auto c = lp::CircuitSource::from_circuit(std::move(other));
    EXPECT_EQ(a.identity(), b.identity());   // same structure, same identity
    EXPECT_NE(a.identity(), c.identity());   // one extra gate changes it
}

// ----------------------------------------------------------------- caching --

TEST(PipelineCache, FabricSweepBuildsGraphsOnce) {
    lp::Pipeline pipe;
    const auto source = lp::CircuitSource::from_bench("ham3");

    const auto sweep = pipe.sweep_fabric_sides(source, {20, 30, 40, 60, 80});
    EXPECT_EQ(sweep.points.size(), 5u);

    // The whole sweep: one parse+synth, one QODG/IIG build, zero rebuilds.
    const lp::CacheStats stats = pipe.cache_stats();
    EXPECT_EQ(stats.circuit_misses, 1u);
    EXPECT_EQ(stats.graph_misses, 1u);
    EXPECT_EQ(stats.evictions, 0u);

    // A second sweep over the same circuit is pure cache hits.
    lcore::ExplorationSpec capacities;
    capacities.capacities = {1, 2, 5};
    (void)pipe.sweep(source, capacities);
    const lp::CacheStats after = pipe.cache_stats();
    EXPECT_EQ(after.circuit_misses, 1u);
    EXPECT_EQ(after.graph_misses, 1u);
    EXPECT_EQ(after.circuit_hits, stats.circuit_hits + 1);
    EXPECT_EQ(after.graph_hits, stats.graph_hits + 1);
}

TEST(PipelineCache, ParamOverridesShareOneEntry) {
    lp::Pipeline pipe;
    const auto source = lp::CircuitSource::from_bench("ham3");
    for (const int side : {30, 40, 60}) {
        lp::EstimationRequest request(source);
        lf::PhysicalParams params;
        params.width = side;
        params.height = side;
        request.params = params;
        const auto result = pipe.run(request);
        EXPECT_TRUE(result.estimate.has_value());
        EXPECT_EQ(result.params.width, side);
    }
    const lp::CacheStats stats = pipe.cache_stats();
    EXPECT_EQ(stats.circuit_misses, 1u);
    EXPECT_EQ(stats.graph_misses, 1u);
    EXPECT_EQ(stats.circuit_hits, 2u);
    EXPECT_EQ(stats.graph_hits, 2u);
}

TEST(PipelineCache, SweepMatchesDirectEstimates) {
    // Cached-graph sweeps must agree exactly with independent sessions.
    lp::Pipeline pipe;
    const auto source = lp::CircuitSource::from_bench("ham3");
    const auto sweep = pipe.sweep_fabric_sides(source, {30, 60});
    for (const auto& point : sweep.points) {
        lp::Pipeline fresh;
        lp::EstimationRequest request(source);
        request.params = point.params;
        const auto result = fresh.run(request);
        EXPECT_DOUBLE_EQ(result.estimate->latency_us, point.estimate.latency_us);
    }
}

TEST(PipelineCache, LruEvictionIsBounded) {
    lp::PipelineConfig config;
    config.max_cached_circuits = 2;
    lp::Pipeline pipe(config);
    (void)pipe.resolve(lp::CircuitSource::from_bench("ham3"));
    (void)pipe.resolve(lp::CircuitSource::from_bench("8bitadder"));
    (void)pipe.resolve(lp::CircuitSource::from_bench("hwb15ps"));
    EXPECT_EQ(pipe.cached_circuits(), 2u);
    EXPECT_EQ(pipe.cache_stats().evictions, 1u);

    // The evicted (least recent) entry re-resolves as a miss.
    (void)pipe.resolve(lp::CircuitSource::from_bench("ham3"));
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 4u);
}

TEST(PipelineCache, SessionFabricIsPartOfIdentity) {
    // The cache key folds the session's full fabric description in: moving
    // the session geometry or topology can never serve an entry cached
    // under a different fabric.
    lp::Pipeline pipe;
    const auto source = lp::CircuitSource::from_bench("ham3");
    const auto on_grid = pipe.resolve(source);
    EXPECT_NE(on_grid->info().cache_key.find("fabric:grid:60x60"), std::string::npos);

    lf::PhysicalParams torus;
    torus.topology = lf::TopologyKind::Torus;
    pipe.set_params(torus);
    const auto on_torus = pipe.resolve(source);
    EXPECT_NE(on_grid->info().cache_key, on_torus->info().cache_key);

    lf::PhysicalParams moved;
    moved.width = 50;
    moved.height = 50;
    pipe.set_params(moved);
    const auto on_moved = pipe.resolve(source);
    EXPECT_NE(on_moved->info().cache_key, on_grid->info().cache_key);
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 3u);

    // Returning to the original fabric is a pure hit again.
    pipe.set_params(lf::PhysicalParams{});
    (void)pipe.resolve(source);
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 3u);
    EXPECT_EQ(pipe.cache_stats().circuit_hits, 1u);
}

TEST(PipelineSweeps, TopologySweepSharesOneEntry) {
    lp::Pipeline pipe;
    const auto source = lp::CircuitSource::from_bench("ham3");
    lcore::ExplorationSpec spec;
    spec.topologies = {lf::TopologyKind::Grid, lf::TopologyKind::Torus,
                       lf::TopologyKind::Line};
    const auto sweep = pipe.sweep(source, spec);
    ASSERT_EQ(sweep.points.size(), 3u);
    for (const auto& point : sweep.points) {
        EXPECT_GT(point.estimate.latency_us, 0.0);
    }
    EXPECT_EQ(sweep.points[2].params.height, 1); // line flattened
    const lp::CacheStats stats = pipe.cache_stats();
    EXPECT_EQ(stats.circuit_misses, 1u);
    EXPECT_EQ(stats.graph_misses, 1u);
}

TEST(PipelineCache, SynthOptionsChangeIdentity) {
    lp::PipelineConfig sharing;
    sharing.synth.share_ancillas = true;
    lp::Pipeline fresh_pipe;
    lp::Pipeline shared_pipe(sharing);
    const auto source = lp::CircuitSource::from_bench("ham3");
    const auto fresh = fresh_pipe.resolve(source);
    const auto shared = shared_pipe.resolve(source);
    EXPECT_NE(fresh->info().cache_key, shared->info().cache_key);
}

// ------------------------------------------------------------------- batch --

TEST(PipelineBatch, ParallelMatchesSequential) {
    const auto make_requests = [] {
        std::vector<lp::EstimationRequest> requests;
        for (const char* name : {"ham3", "8bitadder", "hwb15ps"}) {
            for (const int side : {40, 60}) {
                lp::EstimationRequest request(lp::CircuitSource::from_bench(name));
                lf::PhysicalParams params;
                params.width = side;
                params.height = side;
                request.params = params;
                requests.push_back(std::move(request));
            }
        }
        return requests;
    };

    lp::Pipeline sequential_pipe;
    std::vector<lp::EstimationResult> sequential;
    for (const auto& request : make_requests()) {
        sequential.push_back(sequential_pipe.run(request));
    }

    lp::Pipeline parallel_pipe;
    const auto parallel = parallel_pipe.run_batch_results(make_requests(), 4);

    ASSERT_EQ(parallel.size(), sequential.size());
    for (std::size_t i = 0; i < parallel.size(); ++i) {
        ASSERT_TRUE(parallel[i].ok()) << parallel[i].status().to_string();
        EXPECT_DOUBLE_EQ(parallel[i].value().estimate->latency_us,
                         sequential[i].estimate->latency_us)
            << "batch result " << i << " diverged";
        EXPECT_EQ(parallel[i].value().circuit.ft_ops, sequential[i].circuit.ft_ops);
    }
    // 3 distinct circuits across 6 requests: the cache still converges to
    // 3 builds regardless of thread interleaving.
    EXPECT_EQ(parallel_pipe.cached_circuits(), 3u);
}

TEST(PipelineBatch, ResultsCarryEveryFailureIndividually) {
    // The per-request API must report each failure, with the right codes,
    // without losing the successes around them.
    lp::Pipeline pipe;
    std::vector<lp::EstimationRequest> requests;
    requests.emplace_back(lp::CircuitSource::from_bench("ham3"));
    requests.emplace_back(lp::CircuitSource::from_path("/nonexistent/a.qasm"));
    requests.emplace_back(lp::CircuitSource::from_bench("8bitadder"));
    requests.emplace_back(lp::CircuitSource::from_path("/nonexistent/b.qasm"));
    lf::PhysicalParams bad;
    bad.width = -1;
    requests.emplace_back(lp::CircuitSource::from_bench("ham3"));
    requests.back().params = bad;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
        const auto outcomes = pipe.run_batch_results(requests, threads);
        ASSERT_EQ(outcomes.size(), 5u);
        EXPECT_TRUE(outcomes[0].ok());
        EXPECT_TRUE(outcomes[2].ok());
        ASSERT_FALSE(outcomes[1].ok());
        ASSERT_FALSE(outcomes[3].ok());
        ASSERT_FALSE(outcomes[4].ok());
        // Two distinct failure kinds survive side by side.
        EXPECT_EQ(outcomes[1].status().code(), leqa::util::StatusCode::NotFound);
        EXPECT_EQ(outcomes[1].status().origin(), "resolve");
        EXPECT_EQ(outcomes[3].status().code(), leqa::util::StatusCode::NotFound);
        EXPECT_EQ(outcomes[4].status().code(), leqa::util::StatusCode::InvalidArgument);
        EXPECT_EQ(outcomes[4].status().origin(), "config");
        EXPECT_GT(outcomes[0].value().estimate->latency_us, 0.0);
    }
}

TEST(PipelineBatch, ColdConcurrentBatchBuildsOnce) {
    // Concurrent requests for the same uncached circuit must not duplicate
    // parse + synthesis: late arrivals wait on the in-flight builder.
    lp::Pipeline pipe;
    std::vector<lp::EstimationRequest> requests;
    for (int i = 0; i < 6; ++i) {
        requests.emplace_back(lp::CircuitSource::from_bench("gf2^16mult"));
    }
    const auto results = pipe.run_batch_results(requests, 4);
    EXPECT_EQ(results.size(), 6u);
    for (const auto& result : results) EXPECT_TRUE(result.ok());
    const lp::CacheStats stats = pipe.cache_stats();
    EXPECT_EQ(stats.circuit_misses, 1u);
    EXPECT_EQ(stats.circuit_hits, 5u);
    EXPECT_EQ(stats.graph_misses, 1u);
}

TEST(PipelineBatch, CacheStatsSnapshotsStayConsistentDuringBatch) {
    // cache_stats() copies the counters under the pipeline mutex; a reader
    // polling it while run_batch_results hammers the cache from four workers must
    // only ever observe monotone counters (every field is cumulative).
    // Under TSan (the CI tsan job runs this suite) this is the data-race
    // regression test for the CacheStats / surface-stats snapshot path.
    lp::Pipeline pipe;
    std::atomic<bool> done{false};
    std::atomic<int> violations{0};
    std::thread reader([&] {
        lp::CacheStats last;
        while (!done.load()) {
            const lp::CacheStats snap = pipe.cache_stats();
            if (snap.circuit_hits < last.circuit_hits) ++violations;
            if (snap.circuit_misses < last.circuit_misses) ++violations;
            if (snap.graph_hits < last.graph_hits) ++violations;
            if (snap.graph_misses < last.graph_misses) ++violations;
            if (snap.surface_hits < last.surface_hits) ++violations;
            if (snap.surface_recomputes < last.surface_recomputes) ++violations;
            last = snap;
        }
    });

    std::vector<lp::EstimationRequest> requests;
    for (int round = 0; round < 4; ++round) {
        for (const char* name : {"ham3", "8bitadder", "hwb15ps"}) {
            requests.emplace_back(lp::CircuitSource::from_bench(name));
        }
    }
    const auto results = pipe.run_batch_results(requests, 4);
    done.store(true);
    reader.join();

    EXPECT_EQ(results.size(), requests.size());
    EXPECT_EQ(violations.load(), 0);
    const lp::CacheStats final_stats = pipe.cache_stats();
    EXPECT_EQ(final_stats.circuit_misses, 3u); // three distinct circuits
    EXPECT_EQ(final_stats.circuit_hits, requests.size() - 3u);
}

TEST(PipelineBatch, InFlightDeduplicationUnderDirectContention) {
    // N threads resolving the same cold bench: source concurrently must
    // converge to exactly one parse+synthesis (one circuit_miss); the other
    // N-1 resolvers wait on the in-flight builder and count as hits.
    constexpr std::size_t kThreads = 8;
    lp::Pipeline pipe;
    const auto source = lp::CircuitSource::from_bench("gf2^16mult");

    std::promise<void> go;
    std::shared_future<void> start = go.get_future().share();
    std::vector<lp::CachedCircuitPtr> entries(kThreads);
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.wait(); // line every thread up on the cold cache
            entries[t] = pipe.resolve(source);
        });
    }
    go.set_value();
    for (std::thread& thread : threads) thread.join();

    const lp::CacheStats stats = pipe.cache_stats();
    EXPECT_EQ(stats.circuit_misses, 1u);
    EXPECT_EQ(stats.circuit_hits, kThreads - 1);
    // Every thread got the same cached object -- no duplicate synthesis.
    for (const auto& entry : entries) {
        ASSERT_NE(entry, nullptr);
        EXPECT_EQ(entry.get(), entries.front().get());
    }
    EXPECT_EQ(pipe.cached_circuits(), 1u);
}

TEST(PipelineBatch, MapModeProducesMapping) {
    lp::Pipeline pipe;
    lp::EstimationRequest request(lp::CircuitSource::from_bench("ham3"),
                                  lp::RunMode::Both);
    const auto result = pipe.run(request);
    ASSERT_TRUE(result.estimate.has_value());
    ASSERT_TRUE(result.mapping.has_value());
    EXPECT_GT(result.estimate->latency_us, 0.0);
    EXPECT_GT(result.mapping->latency_us, 0.0);
    EXPECT_GE(result.times.total_s, 0.0);
}

// -------------------------------------------------------------- lazy views --

namespace {

/// A named, commented pre-FT circuit whose synthesis draws ancillas (a
/// 4-control X and a 2-control swap) and lowers Toffolis, a Fredkin and
/// a swap.
leqa::circuit::Circuit lazy_view_circuit() {
    leqa::circuit::Circuit circ(8, "lazy_views");
    circ.add_comment("provenance line");
    const leqa::circuit::Qubit controls[] = {0, 1, 2, 3};
    circ.h(0).toffoli(0, 1, 2).mcx(controls, 4).fredkin(5, 6, 7).swap(1, 6).cnot(4, 7);
    circ.add_gate(leqa::circuit::make_mcswap(std::span(controls, 2), 5, 7));
    circ.t(3).mcx(controls, 6);
    return circ;
}

/// A result with its wall times zeroed, as JSON: what must not differ
/// between two runs of one request.
std::string timeless_json(lp::EstimationResult result) {
    result.times = lp::StageTimes{};
    return leqa::report::result_to_json(result);
}

std::vector<leqa::synth::FtSynthOptions> synth_variants() {
    leqa::synth::FtSynthOptions shared;
    shared.share_ancillas = true;
    leqa::synth::FtSynthOptions toffoli;
    toffoli.keep_toffoli = true;
    return {leqa::synth::FtSynthOptions{}, shared, toffoli};
}

} // namespace

TEST(PipelineLazyViews, FtAfterEstimateEqualsFreshSynthesis) {
    // An estimate builds no FT circuit; the ft() after it synthesizes one
    // from the kept pre-FT circuit, identical to a fresh synthesis, and a
    // map then reuses it.
    const lp::CircuitSource sources[] = {lp::CircuitSource::from_bench("ham3"),
                                         lp::CircuitSource::from_circuit(lazy_view_circuit())};
    for (const leqa::synth::FtSynthOptions& options : synth_variants()) {
        for (const lp::CircuitSource& source : sources) {
            const std::string what = source.display_name() + (options.share_ancillas ? " shared"
                                                              : options.keep_toffoli ? " toffoli"
                                                                                     : "");
            lp::PipelineConfig config;
            config.synth = options;
            lp::Pipeline pipe(config);
            const lp::CachedCircuitPtr entry = pipe.resolve(source);
            if (options.keep_toffoli) {
                (void)entry->profile(); // Toffolis have no FT delay to estimate with
            } else {
                ASSERT_TRUE(pipe.run(lp::EstimationRequest(source)).estimate.has_value()) << what;
            }

            const leqa::circuit::Circuit expected =
                leqa::synth::ft_synthesize(source.load(), options).circuit;
            const leqa::circuit::Circuit& ft = entry->ft();
            EXPECT_TRUE(ft.same_structure(expected)) << what;
            EXPECT_EQ(ft.name(), expected.name()) << what;
            EXPECT_EQ(ft.comments(), expected.comments()) << what;
            ASSERT_EQ(ft.num_qubits(), expected.num_qubits()) << what;
            for (leqa::circuit::Qubit q = 0; q < ft.num_qubits(); ++q) {
                EXPECT_EQ(ft.qubit_name(q), expected.qubit_name(q)) << what << " qubit " << q;
            }
            EXPECT_EQ(entry->info().qubits, expected.num_qubits()) << what;
            EXPECT_EQ(entry->info().ft_ops, expected.size()) << what;
            EXPECT_EQ(entry->synth_stats().to_string(),
                      leqa::synth::ft_synthesize(source.load(), options).stats.to_string())
                << what;
            if (options.keep_toffoli) continue; // QSPR maps FT circuits only
            EXPECT_EQ(&entry->ft(), &ft) << what; // built once
            (void)pipe.run(lp::EstimationRequest(source, lp::RunMode::Map));
            EXPECT_EQ(&entry->ft(), &ft) << what;
        }
    }
}

TEST(PipelineLazyViews, BothEqualsSeparateEstimateAndMap) {
    for (const lp::CircuitSource& source :
         {lp::CircuitSource::from_bench("ham3"),
          lp::CircuitSource::from_circuit(lazy_view_circuit())}) {
        lp::Pipeline both_pipe;
        const auto both = both_pipe.run(lp::EstimationRequest(source, lp::RunMode::Both));
        lp::Pipeline split_pipe;
        auto split = split_pipe.run(lp::EstimationRequest(source));
        split.mapping = split_pipe.run(lp::EstimationRequest(source, lp::RunMode::Map)).mapping;
        ASSERT_TRUE(both.estimate.has_value() && both.mapping.has_value());
        EXPECT_EQ(timeless_json(both), timeless_json(split)) << source.display_name();
    }
}

TEST(PipelineLazyViews, AncillaNameClashFailsTheEstimateLikeSynthesis) {
    // The tape keeps no qubit names, yet an input qubit named like an
    // ancilla fails the estimate with synthesis' own error.
    leqa::circuit::Circuit circ;
    for (const char* name : {"a", "b", "c", "anc0", "t"}) circ.add_qubit(name);
    const leqa::circuit::Qubit controls[] = {0, 1, 2};
    circ.mcx(controls, 4);
    EXPECT_THROW((void)leqa::synth::ft_synthesize(circ), InputError);
    lp::Pipeline pipe;
    try {
        (void)pipe.run(lp::EstimationRequest(lp::CircuitSource::from_circuit(circ)));
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("duplicate qubit name: anc0"), std::string::npos)
            << e.what();
    }
}

TEST(PipelineLazyViews, ConcurrentFirstUseBuildsEachViewOnce) {
    lp::Pipeline pipe;
    const lp::CachedCircuitPtr entry =
        pipe.resolve(lp::CircuitSource::from_circuit(lazy_view_circuit()));
    constexpr std::size_t kThreads = 4;
    std::array<const leqa::circuit::Circuit*, kThreads> fts{};
    std::array<const leqa::qodg::NodeId*, kThreads> successors{};
    std::array<const leqa::iig::Iig*, kThreads> iigs{};
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) std::this_thread::yield();
            // Each thread touches the views in its own order.
            for (std::size_t step = 0; step < 3; ++step) {
                switch ((step + t) % 3) {
                    case 0: fts[t] = &entry->ft(); break;
                    case 1: successors[t] = entry->qodg().successors(0).data(); break;
                    default: iigs[t] = &entry->iig(); break;
                }
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t t = 1; t < kThreads; ++t) {
        EXPECT_EQ(fts[t], fts[0]) << "thread " << t;
        EXPECT_EQ(successors[t], successors[0]) << "thread " << t;
        EXPECT_EQ(iigs[t], iigs[0]) << "thread " << t;
    }
    const leqa::circuit::Circuit expected =
        leqa::synth::ft_synthesize(lazy_view_circuit()).circuit;
    EXPECT_TRUE(fts[0]->same_structure(expected));
    // The IIG is read from the tape, yet equals the FT circuit's.
    const leqa::iig::Iig expected_iig(expected);
    ASSERT_EQ(iigs[0]->num_qubits(), expected_iig.num_qubits());
    EXPECT_EQ(iigs[0]->num_edges(), expected_iig.num_edges());
    for (leqa::circuit::Qubit q = 0; q < expected_iig.num_qubits(); ++q) {
        EXPECT_EQ(iigs[0]->degree(q), expected_iig.degree(q)) << "qubit " << q;
        EXPECT_EQ(iigs[0]->adjacent_weight(q), expected_iig.adjacent_weight(q)) << "qubit " << q;
    }
    EXPECT_EQ(entry->qodg().num_edges(), leqa::qodg::Qodg(expected).num_edges());
}

// ------------------------------------------------------------ path sources --

namespace {

/// The estimate of \p result as JSON, with everything that names the
/// source (label, circuit info, times) taken from \p like.
std::string estimate_json(lp::EstimationResult result, const lp::EstimationResult& like) {
    result.label = like.label;
    result.circuit = like.circuit;
    return timeless_json(std::move(result));
}

} // namespace

TEST(PipelinePathSources, FtFilesEstimateLikeTheirBenchRuns) {
    // A path source streams from its reader into the QODG's tape, with
    // synthesis on or off: an FT netlist, as the QASM subset or as
    // OpenQASM, estimates exactly like the generator it was written from.
    TempDir dir;
    for (const char* name : {"ham3", "8bitadder", "hwb15ps", "gf2^16mult", "gf2^64mult"}) {
        const lp::CircuitSource bench_source = lp::CircuitSource::from_bench(name);
        const lp::EstimationResult bench = lp::Pipeline().run(lp::EstimationRequest(bench_source));
        const leqa::circuit::Circuit ft = leqa::synth::ft_synthesize(bench_source.load()).circuit;
        const std::string qasm = dir.file(std::string(name) + ".qasm");
        const std::string openqasm = dir.file(std::string(name) + ".openqasm.qasm");
        leqa::parser::write_file(qasm, leqa::parser::write_qasm(ft));
        leqa::parser::write_file(openqasm, leqa::parser::write_openqasm(ft));
        for (const std::string& path : {qasm, openqasm}) {
            for (const bool synthesize : {true, false}) {
                const std::string what = path + (synthesize ? " synth on" : " synth off");
                lp::PipelineConfig config;
                config.auto_synthesize = synthesize;
                lp::Pipeline pipe(config);
                const lp::EstimationResult result =
                    pipe.run(lp::EstimationRequest(lp::CircuitSource::from_path(path)));
                EXPECT_FALSE(result.circuit.synthesized) << what;
                EXPECT_EQ(result.circuit.pre_ft_gates, ft.size()) << what;
                EXPECT_EQ(result.circuit.ft_ops, bench.circuit.ft_ops) << what;
                EXPECT_EQ(result.circuit.qubits, bench.circuit.qubits) << what;
                EXPECT_EQ(result.circuit.name,
                          path == qasm ? bench.circuit.name : name + std::string(".openqasm.qasm"))
                    << what;
                ASSERT_TRUE(result.estimate.has_value()) << what;
                EXPECT_EQ(result.estimate->latency_us, bench.estimate->latency_us) << what;
                EXPECT_EQ(estimate_json(result, bench), timeless_json(bench)) << what;
            }
        }
    }
}

TEST(PipelinePathSources, FtReadsTheKeptTextNotTheFile) {
    // A streamed entry keeps the file's text, and its ft() reads that text
    // when a map first asks: overwriting the file after resolve changes
    // neither the circuit nor the map.
    TempDir dir;
    const std::string path = dir.file("adder.qasm");
    leqa::parser::write_file(
        path, leqa::parser::write_qasm(
                  leqa::synth::ft_synthesize(leqa::benchgen::make_benchmark("8bitadder")).circuit));
    const leqa::circuit::Circuit expected = leqa::parser::load_netlist(path);
    const lp::CircuitSource source = lp::CircuitSource::from_path(path);

    lp::Pipeline pipe;
    const lp::CachedCircuitPtr entry = pipe.resolve(source);
    ASSERT_FALSE(entry->info().synthesized);
    write_text(path, "qubit a\nh a\n");

    const leqa::circuit::Circuit& ft = entry->ft();
    EXPECT_TRUE(ft.same_structure(expected));
    EXPECT_EQ(ft.name(), expected.name());
    ASSERT_EQ(ft.num_qubits(), expected.num_qubits());
    for (leqa::circuit::Qubit q = 0; q < ft.num_qubits(); ++q) {
        EXPECT_EQ(ft.qubit_name(q), expected.qubit_name(q)) << "qubit " << q;
    }

    const lp::EstimationResult both = pipe.run(lp::EstimationRequest(source, lp::RunMode::Both));
    EXPECT_EQ(pipe.cache_stats().circuit_hits, 1u); // the entry resolved before the overwrite
    EXPECT_EQ(&entry->ft(), &ft);
    const lp::EstimationResult built = lp::Pipeline().run(
        lp::EstimationRequest(lp::CircuitSource::from_circuit(expected), lp::RunMode::Both));
    ASSERT_TRUE(both.mapping.has_value() && built.mapping.has_value());
    EXPECT_EQ(both.mapping->latency_us, built.mapping->latency_us);
    EXPECT_EQ(both.estimate->latency_us, built.estimate->latency_us);
}

TEST(PipelinePathSources, BlankLineFilesEstimateAndMapEmpty) {
    // A file of blank lines holds no gate.  The tape and the FT circuit a
    // map reads from the kept text reserve at most one gate per 4 bytes
    // (parser::gates_to_reserve), not one per newline: 10 B and 40 B per
    // byte before, which a 100 MB file turned into a bad_alloc.
    TempDir dir;
    const std::string path = dir.file("blank.qasm");
    write_text(path, std::string(std::size_t{1} << 20, '\n'));
    for (const bool synthesize : {true, false}) {
        lp::PipelineConfig config;
        config.auto_synthesize = synthesize;
        lp::Pipeline pipe(config);
        const lp::EstimationResult result = pipe.run(
            lp::EstimationRequest(lp::CircuitSource::from_path(path), lp::RunMode::Both));
        EXPECT_EQ(result.circuit.pre_ft_gates, 0u);
        EXPECT_EQ(result.circuit.qubits, 0u);
        EXPECT_EQ(result.circuit.ft_ops, 0u);
        EXPECT_FALSE(result.circuit.synthesized);
        ASSERT_TRUE(result.estimate.has_value());
        EXPECT_EQ(result.estimate->latency_us, 0.0);
        ASSERT_TRUE(result.mapping.has_value());
        EXPECT_EQ(result.mapping->latency_us, 0.0);
    }
    EXPECT_EQ(leqa::parser::gates_to_reserve(std::string(std::size_t{1} << 20, '\n')),
              std::size_t{1} << 18);
}

TEST(PipelinePathSources, PreFtGateAfterAnFtPrefix) {
    // 10,000 FT gates, then one Toffoli.  With synthesis on the stream
    // stops at the Toffoli and the text is read again into a circuit that
    // synthesizes; with synthesis off every gate reaches the tape and the
    // kernel refuses the pre-FT graph, as for an inline circuit.
    std::string text = ".name tail\n.qubits 3\n";
    for (int i = 0; i < 10000; ++i) {
        text += i % 3 == 0 ? "cnot q0, q1\n" : i % 3 == 1 ? "t q2\n" : "h q1\n";
    }
    text += "toffoli q0 q1 q2\n";
    TempDir dir;
    const std::string path = dir.file("tail.qasm");
    write_text(path, text);
    const lp::CircuitSource file = lp::CircuitSource::from_path(path);
    const lp::CircuitSource circuit =
        lp::CircuitSource::from_circuit(leqa::parser::parse_qasm(text));

    const lp::EstimationResult streamed = lp::Pipeline().run(lp::EstimationRequest(file));
    const lp::EstimationResult inline_run = lp::Pipeline().run(lp::EstimationRequest(circuit));
    EXPECT_TRUE(streamed.circuit.synthesized);
    EXPECT_EQ(streamed.circuit.name, "tail");
    EXPECT_EQ(streamed.circuit.pre_ft_gates, 10001u);
    EXPECT_EQ(streamed.circuit.ft_ops, inline_run.circuit.ft_ops);
    EXPECT_EQ(estimate_json(streamed, inline_run), timeless_json(inline_run));

    lp::PipelineConfig off;
    off.auto_synthesize = false;
    const auto message_of = [&](const lp::CircuitSource& source) {
        try {
            (void)lp::Pipeline(off).run(lp::EstimationRequest(source));
        } catch (const InputError& e) {
            return std::string(e.what());
        }
        return std::string("(estimated)");
    };
    EXPECT_NE(message_of(file).find("no FT delay for gate kind 'toffoli'"), std::string::npos)
        << message_of(file);
    EXPECT_EQ(message_of(file), message_of(circuit));
}

// ------------------------------------------------------------------ errors --

TEST(PipelineSweeps, RunControlCancelsBeforeWork) {
    // A pre-set cancel flag aborts at the checkpoint before resolve: no
    // circuit is ever parsed or synthesized.
    lp::Pipeline pipe;
    lp::RunControl control;
    control.cancel.store(true);
    EXPECT_THROW((void)pipe.sweep_fabric_sides(lp::CircuitSource::from_bench("ham3"),
                                               {40, 50, 60}, &control),
                 leqa::util::CancelledError);
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 0u);
    EXPECT_THROW((void)pipe.calibrate({lp::CircuitSource::from_bench("ham3")}, &control),
                 leqa::util::CancelledError);
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 0u);
}

TEST(PipelineSweeps, BetweenPointsHookAbortsMidSweep) {
    // The evaluation loop calls the between-points hook before every point,
    // so a cancellation/deadline raised there stops a long sweep mid-way.
    lp::Pipeline pipe;
    const auto source = lp::CircuitSource::from_bench("ham3");
    const auto full = pipe.sweep_fabric_sides(source, {40, 50, 60});
    ASSERT_EQ(full.points.size(), 3u);

    const lp::CachedCircuitPtr entry = pipe.resolve(source);
    int calls = 0;
    lcore::ExplorationSpec spec;
    spec.sides = {40, 50, 60};
    EXPECT_THROW((void)lcore::explore(
                     entry->profile(), lf::PhysicalParams{}, spec, {},
                     [&] {
                         if (++calls == 3) {
                             throw leqa::util::CancelledError("stop mid-sweep");
                         }
                     }),
                 leqa::util::CancelledError);
    EXPECT_EQ(calls, 3); // one call per point; the third aborted the sweep
}

TEST(PipelineErrors, MalformedNetlistPathPropagates) {
    lp::Pipeline pipe;
    lp::EstimationRequest request(
        lp::CircuitSource::from_path("/nonexistent/leqa/circuit.qasm"));
    EXPECT_THROW((void)pipe.run(request), InputError);
}

TEST(PipelineErrors, MalformedNetlistContentPropagates) {
    TempDir dir;
    const std::string path = dir.file("broken.qasm");
    write_text(path, "OPENQASM 2.0;\nqreg q[2];\nbogusgate q[0];\n");
    lp::Pipeline pipe;
    lp::EstimationRequest request(lp::CircuitSource::from_path(path));
    EXPECT_THROW((void)pipe.run(request), leqa::util::Error);
}

TEST(PipelineErrors, InvalidParamOverrideRejected) {
    lp::Pipeline pipe;
    lp::EstimationRequest request(lp::CircuitSource::from_bench("ham3"));
    lf::PhysicalParams params;
    params.width = -1;
    request.params = params;
    EXPECT_THROW((void)pipe.run(request), InputError);
}

// ------------------------------------------------------------- calibration --

TEST(PipelineCalibration, CalibratesAndAppliesV) {
    lp::Pipeline pipe;
    const std::vector<lp::CircuitSource> training = {
        lp::CircuitSource::from_bench("ham3")};
    const auto result = pipe.calibrate(training);
    EXPECT_GT(result.v, 0.0);
    pipe.apply_calibration(result);
    EXPECT_DOUBLE_EQ(pipe.config().params.v, result.v);
}

TEST(PipelineCalibration, VSearchRunsOnCachedGraphs) {
    lp::Pipeline pipe;
    const auto training =
        pipe.training_samples({lp::CircuitSource::from_bench("ham3")});
    ASSERT_EQ(training.graph_samples.size(), 1u);
    EXPECT_EQ(pipe.cache_stats().graph_misses, 1u);

    // The whole v search (hundreds of estimator evaluations) borrows the
    // cached QODG; the session never builds a second one.
    const auto result = pipe.calibrate(training);
    EXPECT_GT(result.evaluations, 50u);
    EXPECT_EQ(pipe.cache_stats().graph_misses, 1u);

    // And calibrating from sources resolves the same cached entry.
    (void)pipe.calibrate({lp::CircuitSource::from_bench("ham3")});
    EXPECT_EQ(pipe.cache_stats().graph_misses, 1u);
    EXPECT_EQ(pipe.cache_stats().circuit_misses, 1u);
}

// ----------------------------------------------------------------- reports --

TEST(PipelineReport, BatchJsonContainsResults) {
    lp::Pipeline pipe;
    std::vector<lp::EstimationRequest> requests;
    requests.emplace_back(lp::CircuitSource::from_bench("ham3"), lp::RunMode::Both);
    requests.emplace_back(lp::CircuitSource::from_bench("ham3"));
    requests[1].label = "ham3-estimate-only";
    const auto results = pipe.run_batch_results(requests, 1);

    const std::string json = leqa::report::batch_results_to_json(results);
    EXPECT_NE(json.find("\"tool\":\"leqa-pipeline\""), std::string::npos);
    EXPECT_NE(json.find("\"count\":2"), std::string::npos);
    EXPECT_NE(json.find("\"failed\":0"), std::string::npos);
    EXPECT_NE(json.find("\"ham3-estimate-only\""), std::string::npos);
    EXPECT_NE(json.find("\"latency_us\""), std::string::npos);
    EXPECT_NE(json.find("\"stage_times_s\""), std::string::npos);
    // The estimate-only result has a null mapping.
    EXPECT_NE(json.find("\"mapping\":null"), std::string::npos);

    const std::string single = leqa::report::result_to_json(results[0].value());
    EXPECT_NE(single.find("\"cache_key\""), std::string::npos);
    EXPECT_NE(single.find("\"mapping\":{"), std::string::npos);
}
