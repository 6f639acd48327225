/// \file sweep_perf.cpp
/// \brief Sweep-cost tracking bench: records cold/warm pipeline sweeps and
///        old-vs-new per-parameter-point timings into BENCH_sweep.json so
///        the perf trajectory is tracked from the staged-engine PR onward.
///
/// Measurements on a gf2 multiplier circuit:
///   - cold sweep: a fresh pipeline session per sweep (synthesis + graph
///     build + profile paid inside the measurement);
///   - warm sweep: the session cache holds the circuit-invariant artifacts,
///     so each point pays only the parameter stage;
///   - per-point: the seed evaluation path (`estimate_reference`: full
///     a x b coverage table, per-cell log-space PMF) against the staged
///     engine on prebuilt graphs, on the 50x50 fabric of the acceptance
///     bar.  `speedup_per_point` is the headline number;
///   - topologies: the same warm sweep and geometry-moving per-point cost
///     for every `fabric::Topology` (grid / torus / line on the
///     area-equivalent fabric), with the per-point cost ratio vs grid —
///     the topology-generic coverage path must stay within 2x of grid;
///   - service overhead: warm per-request cost through the async
///     `service::Service` (1 worker, submit-all / wait-all) against direct
///     `Pipeline::run` on the same warm session, as the median ratio over
///     11 interleaved rounds — the scheduler must stay under ~5%
///     per-request overhead — and, from the same rounds, the median extra
///     allocations and bytes per request the service adds, which unlike
///     the ratio do not move with the host;
///   - explore: the parallel multi-dimensional explorer on a 200-point
///     topology x side x Nc x v cross-product at 1/2/4 worker threads —
///     points/sec, speedup vs the serial evaluation, and a bit-identity
///     check of the 4-thread result against serial.  Always on gf2^32mult:
///     a smaller circuit leaves too little work per thread to scale.
///     `effective_parallelism` (a spin probe: 4 threads of fixed work
///     against one) qualifies the scaling numbers — a shared box may run 4
///     threads on far fewer than 4 cores;
///   - batched vs scalar: a 64-point (Nc, v) axis through one
///     estimate_batch call against a scalar estimate() per point, with two
///     parity flags: `parity_ok` (batch == scalar engine) and
///     `reference_parity_ok` (every batched latency and census == the
///     push-based longest path over the same delays).  The push-based
///     loop is timed too: `reference_speedup` is its per-point cost over
///     the batched one, a same-box ratio that a slower lane kernel lowers;
///   - front end: the cold circuit's tape built three ways, its FT circuit
///     fed gate by gate into a `qodg::Qodg::Builder`, `synthesize_into` a
///     Builder from its pre-FT circuit, and its FT .qasm text read into a
///     Builder by the QASM-subset reader; `synth_vs_feed_speedup` is the
///     feed time over the synthesis time, `reader_vs_feed` the reader's
///     time over the feed time (both end in `add_gate`, so it is the cost
///     of reading the text), and `tape_parity_ok` checks that the three
///     graphs' `to_dot()` and gate counts are equal;
///   - allocations: a counting global `operator new` (this binary only)
///     records allocations and bytes per FT op of a cold `Pipeline::run`
///     of bench:gf2^64mult (full size under every knob), of the same
///     circuit's FT .qasm file with synthesis off (written to a temporary
///     file first; the reader streams it into the QODG's tape), per
///     point of the serial 200-point explore, per hop of 1,000 seeded
///     random routes on a 60x60 torus (a route is one vector of segment
///     ids: 4 B per hop), and per FT op of QSPR maps of gf2^16mult at the
///     60x60 defaults (grid with XY routing, torus with maze routing); and
///     per text byte of a cold map of a 1 MB file of blank lines, whose
///     reservations are capped at one gate per 4 bytes.  All six counts are
///     deterministic.
///
/// Environment knobs: LEQA_BENCH_FAST / LEQA_BENCH_LIMIT (see harness.h)
/// shrink the circuit of every section but explore; LEQA_SWEEP_JSON
/// overrides the artifact path.
#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/gf2_mult.h"
#include "benchgen/suite.h"
#include "core/engine.h"
#include "core/explore.h"
#include "core/leqa.h"
#include "fabric/topology.h"
#include "harness.h"
#include "iig/iig.h"
#include "mathx/stats.h"
#include "parser/io.h"
#include "parser/qasm.h"
#include "parser/readers.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "qspr/qspr.h"
#include "qspr/router.h"
#include "service/service.h"
#include "synth/decompose.h"
#include "synth/ft_synth.h"
#include "util/env.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace {

// Every allocation this process makes, counted by the replacement global
// operator new below.
std::atomic<std::size_t> g_allocations{0};
std::atomic<std::size_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t size, std::size_t alignment) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    g_allocated_bytes.fetch_add(size, std::memory_order_relaxed);
    const std::size_t bytes = size == 0 ? 1 : size;
    void* block = alignment <= alignof(std::max_align_t)
                      ? std::malloc(bytes)
                      : std::aligned_alloc(alignment, (bytes + alignment - 1) / alignment * alignment);
    if (block == nullptr) throw std::bad_alloc();
    return block;
}

} // namespace

void* operator new(std::size_t size) { return counted_alloc(size, alignof(std::max_align_t)); }
void* operator new(std::size_t size, std::align_val_t alignment) {
    return counted_alloc(size, static_cast<std::size_t>(alignment));
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }
void operator delete(void* block, std::align_val_t) noexcept { std::free(block); }
void operator delete(void* block, std::size_t, std::align_val_t) noexcept { std::free(block); }

namespace {

using namespace leqa;

/// Allocations and bytes allocated while `body` runs.
struct AllocationCount {
    std::size_t allocations = 0;
    std::size_t bytes = 0;
};

template <typename F>
AllocationCount count_allocations(F&& body) {
    const std::size_t allocations = g_allocations.load(std::memory_order_relaxed);
    const std::size_t bytes = g_allocated_bytes.load(std::memory_order_relaxed);
    body();
    return {g_allocations.load(std::memory_order_relaxed) - allocations,
            g_allocated_bytes.load(std::memory_order_relaxed) - bytes};
}

double per(std::size_t count, std::size_t units) {
    return units > 0 ? static_cast<double>(count) / static_cast<double>(units) : 0.0;
}

std::uint64_t spin(std::uint64_t iterations, std::uint64_t state) {
    for (std::uint64_t i = 0; i < iterations; ++i) {
        state = state * 6364136223846793005ULL + 1442695040888963407ULL;
        state ^= state >> 29;
    }
    return state;
}

/// N threads of fixed spin work against one: N * t1 / tN.  Calibrated so
/// one thread spins about 40 ms; the median of three trials.
double effective_parallelism(unsigned threads) {
    std::uint64_t iterations = 1u << 20;
    for (;;) {
        const util::Stopwatch clock;
        volatile std::uint64_t sink = spin(iterations, 1);
        (void)sink;
        if (clock.seconds() > 0.04 || iterations > (1ull << 40)) break;
        iterations *= 2;
    }
    std::vector<double> trials;
    for (int trial = 0; trial < 3; ++trial) {
        const util::Stopwatch one_clock;
        volatile std::uint64_t sink = spin(iterations, 3);
        const double one = one_clock.seconds();
        std::vector<std::thread> pool;
        std::vector<std::uint64_t> out(threads);
        const util::Stopwatch many_clock;
        for (unsigned t = 0; t < threads; ++t) {
            pool.emplace_back([&, t] { out[t] = spin(iterations, t + 5); });
        }
        for (auto& thread : pool) thread.join();
        const double many = many_clock.seconds();
        sink = out[0];
        (void)sink;
        trials.push_back(static_cast<double>(threads) * one / many);
    }
    std::sort(trials.begin(), trials.end());
    return trials[1];
}

/// Best-of-N wall time of a callable, in seconds.
template <typename F>
double best_of(int repetitions, F&& body) {
    double best = 1e300;
    for (int rep = 0; rep < repetitions; ++rep) {
        const util::Stopwatch clock;
        body();
        best = std::min(best, clock.seconds());
    }
    return best;
}

} // namespace

int main() {
    std::printf("=== sweep cost: pipeline cold/warm and per-point old vs new ===\n\n");

    // gf2^32mult-sized input by default; the FAST knob drops to n = 16.
    const int n = bench::bench_op_limit() > 0 && bench::bench_op_limit() <= 80000 ? 16 : 32;
    benchgen::Gf2MultSpec spec;
    spec.n = n;
    spec.form = benchgen::Gf2PolyForm::Auto;
    const circuit::Circuit reversible = benchgen::gf2_mult(spec);
    const auto source = pipeline::CircuitSource::from_circuit(reversible);

    const std::vector<int> sides = {40, 44, 48, 50, 52, 56, 60, 64, 72, 80};

    // --- cold vs warm sweep through the pipeline ---------------------------
    const double cold_s = best_of(3, [&] {
        pipeline::Pipeline fresh; // pays synthesis + graphs + profile
        (void)fresh.sweep_fabric_sides(source, sides);
    });

    pipeline::Pipeline warm;
    (void)warm.sweep_fabric_sides(source, sides); // populate the cache
    const double warm_s = best_of(5, [&] {
        (void)warm.sweep_fabric_sides(source, sides);
    });

    // --- per-point: seed evaluation vs staged engine, 50x50 fabric ---------
    const circuit::Circuit ft = synth::ft_synthesize(reversible).circuit;
    const qodg::Qodg graph(ft);
    const iig::Iig iig(ft);
    const core::CircuitProfile profile = core::CircuitProfile::build(graph, iig);

    fabric::PhysicalParams params;
    params.width = 50;
    params.height = 50;

    const core::LeqaEstimator seed_estimator(params);

    const int reps = 20;
    const double seed_point_s = best_of(3, [&] {
        for (int rep = 0; rep < reps; ++rep) {
            (void)seed_estimator.estimate_reference(graph, iig);
        }
    }) / reps;

    // Two staged regimes.  Geometry-moving (a fabric-side sweep): every
    // point changes (a, b), so it builds its own engine and pays the full
    // compressed-coverage + Eq. 18 parameter stage — the conservative
    // headline.  Geometry-fixed (a v or Nc sweep, the calibrator): one
    // engine takes each point as a one-point batch, its E[S_q] slot hits,
    // and each point pays only the congestion algebra + critical path.
    fabric::PhysicalParams jiggled = params;
    jiggled.height = 49;
    const double staged_point_s = best_of(3, [&] {
        for (int rep = 0; rep < reps; ++rep) {
            const core::EstimationEngine point_engine(rep % 2 == 0 ? params : jiggled);
            (void)point_engine.estimate(profile);
        }
    }) / reps;

    const core::EstimationEngine memo_engine(params);
    const std::array<core::ParameterPoint, 2> memo_points = {
        core::ParameterPoint{params.nc, params.v},
        core::ParameterPoint{params.nc, params.v * 2.0}};
    const double staged_memo_point_s = best_of(3, [&] {
        for (int rep = 0; rep < reps; ++rep) {
            (void)memo_engine.estimate_batch(profile, {&memo_points[rep % 2], 1});
        }
    }) / reps;

    const double per_point_speedup =
        staged_point_s > 0.0 ? seed_point_s / staged_point_s : 0.0;
    const double memo_point_speedup =
        staged_memo_point_s > 0.0 ? seed_point_s / staged_memo_point_s : 0.0;
    const double warm_point_s = warm_s / static_cast<double>(sides.size());

    // --- the topology axis: warm sweep + geometry-moving per-point cost ----
    struct TopologyRow {
        std::string name;
        double warm_s = 0.0;
        double point_s = 0.0;
        double vs_grid = 0.0; ///< per-point cost ratio against grid
    };
    std::vector<TopologyRow> topology_rows;
    for (const auto kind :
         {fabric::TopologyKind::Grid, fabric::TopologyKind::Torus,
          fabric::TopologyKind::Line}) {
        TopologyRow row;
        row.name = fabric::topology_kind_name(kind);

        fabric::PhysicalParams base;
        base.topology = kind;
        if (kind == fabric::TopologyKind::Line) {
            base.width = base.width * base.height; // area-equivalent row
            base.height = 1;
        }
        pipeline::PipelineConfig config;
        config.params = base;
        pipeline::Pipeline session(config);
        (void)session.sweep_fabric_sides(source, sides); // warm the cache
        row.warm_s = best_of(5, [&] {
            (void)session.sweep_fabric_sides(source, sides);
        });

        // Geometry-moving per-point cost on the 50x50-area fabric of the
        // acceptance bar (2500x1 for the line), one engine per point.
        fabric::PhysicalParams at = base;
        at.width = kind == fabric::TopologyKind::Line ? 2500 : 50;
        at.height = kind == fabric::TopologyKind::Line ? 1 : 50;
        fabric::PhysicalParams moved = at;
        if (kind == fabric::TopologyKind::Line) {
            moved.width = 2450;
        } else {
            moved.height = 49;
        }
        row.point_s = best_of(3, [&] {
            for (int rep = 0; rep < reps; ++rep) {
                const core::EstimationEngine topo_engine(rep % 2 == 0 ? at : moved);
                (void)topo_engine.estimate(profile);
            }
        }) / reps;
        topology_rows.push_back(row);
    }
    for (auto& row : topology_rows) {
        row.vs_grid = topology_rows.front().point_s > 0.0
                          ? row.point_s / topology_rows.front().point_s
                          : 0.0;
    }

    // --- service overhead: async boundary vs direct run, 1 worker ----------
    // Same warm session on both sides; requests hit the circuit cache (each
    // run still builds a fresh engine and computes E[S_q]), isolating pure
    // scheduling cost (job alloc + queue + worker handoff + result
    // delivery) in the daemon's steady-state shape (submit a batch, then
    // collect).  Host drift between two separately timed blocks moves
    // their ratio, so the rounds interleave: each times a direct block,
    // then a service block, and the ratio is the median of the per-round
    // ratios.  The same blocks count their allocations: the service's extra
    // allocations per request are a count, so the host does not move them.
    const int service_reps = 64;
    const int service_rounds = 11;
    auto session = std::make_shared<pipeline::Pipeline>();
    pipeline::EstimationRequest warm_request(source);
    (void)session->run(warm_request); // populate circuit + graphs

    service::ServiceOptions service_options;
    service_options.threads = 1;
    service::Service svc(session, service_options);
    std::vector<service::JobHandle> handles(
        static_cast<std::size_t>(service_reps));
    std::vector<double> direct_times;
    std::vector<double> service_times;
    std::vector<double> service_ratios;
    std::vector<double> extra_allocations;
    std::vector<double> extra_bytes;
    for (int round = 0; round < service_rounds; ++round) {
        const util::Stopwatch direct_clock;
        const AllocationCount direct_count = count_allocations([&] {
            for (int rep = 0; rep < service_reps; ++rep) {
                (void)session->run(warm_request);
            }
        });
        const double direct = direct_clock.seconds() / service_reps;
        const util::Stopwatch service_clock;
        const AllocationCount service_count = count_allocations([&] {
            for (int rep = 0; rep < service_reps; ++rep) {
                handles[static_cast<std::size_t>(rep)] = svc.submit(warm_request);
            }
            // Collect newest-first: one sleep on the whole batch instead of
            // a wake/sleep ping-pong per job (jobs complete in FIFO order
            // here).
            for (auto it = handles.rbegin(); it != handles.rend(); ++it) {
                (void)it->wait();
            }
        });
        const double served = service_clock.seconds() / service_reps;
        direct_times.push_back(direct);
        service_times.push_back(served);
        service_ratios.push_back(direct > 0.0 ? served / direct : 0.0);
        const auto extra = [&](std::size_t served_count, std::size_t direct_count) {
            return (static_cast<double>(served_count) - static_cast<double>(direct_count)) /
                   service_reps;
        };
        extra_allocations.push_back(
            extra(service_count.allocations, direct_count.allocations));
        extra_bytes.push_back(extra(service_count.bytes, direct_count.bytes));
    }
    const double direct_req_s = mathx::percentile(direct_times, 50.0);
    const double service_req_s = mathx::percentile(service_times, 50.0);
    const double service_overhead = mathx::percentile(service_ratios, 50.0);
    const double extra_allocations_per_request = mathx::percentile(extra_allocations, 50.0);
    const double extra_bytes_per_request = mathx::percentile(extra_bytes, 50.0);

    // --- parallel explore: cross-product scaling at 1/2/4 threads ----------
    // 2 topologies x 10 sides x 2 capacities x 5 speeds = 200 points, the
    // acceptance-bar shape.  The serial result is the bit-identity baseline.
    // Full size even under LEQA_BENCH_FAST: on gf2^16mult a serial pass is
    // ~5 ms, too short for 4 threads to amortize their start-up.
    benchgen::Gf2MultSpec explore_circuit = spec;
    explore_circuit.n = 32;
    const circuit::Circuit explore_ft =
        synth::ft_synthesize(benchgen::gf2_mult(explore_circuit)).circuit;
    const qodg::Qodg explore_graph(explore_ft);
    const iig::Iig explore_iig(explore_ft);
    const core::CircuitProfile explore_profile =
        core::CircuitProfile::build(explore_graph, explore_iig);
    core::ExplorationSpec explore_spec;
    explore_spec.topologies = {fabric::TopologyKind::Grid, fabric::TopologyKind::Torus};
    explore_spec.sides = {40, 44, 48, 50, 52, 56, 60, 64, 72, 80};
    explore_spec.capacities = {3, 5};
    explore_spec.speeds = {0.0005, 0.001, 0.002, 0.004, 0.008};

    fabric::PhysicalParams explore_base; // Table 1 defaults, grid 60x60
    const std::vector<fabric::PhysicalParams> explore_points =
        core::exploration_configurations(explore_profile.num_qubits, explore_base,
                                         explore_spec);
    core::ExplorationResult serial_explore;
    const AllocationCount explore_allocations = count_allocations([&] {
        serial_explore = core::evaluate_configurations(explore_profile, explore_points, {}, 1);
    });

    struct ExploreRow {
        std::size_t threads = 1;
        double seconds = 0.0;
        double points_per_s = 0.0;
        double speedup = 0.0;    ///< serial seconds / this row's seconds
        bool bit_identical = false; ///< all latencies == the serial run's
    };
    std::vector<ExploreRow> explore_rows;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        ExploreRow row;
        row.threads = threads;
        core::ExplorationResult last;
        row.seconds = best_of(3, [&] {
            last = core::evaluate_configurations(explore_profile, explore_points, {},
                                                 threads);
        });
        row.points_per_s = row.seconds > 0.0
                               ? static_cast<double>(explore_points.size()) / row.seconds
                               : 0.0;
        row.bit_identical = last.points.size() == serial_explore.points.size() &&
                            last.best_index == serial_explore.best_index;
        for (std::size_t i = 0; row.bit_identical && i < last.points.size(); ++i) {
            row.bit_identical = last.points[i].estimate.latency_us ==
                                serial_explore.points[i].estimate.latency_us;
        }
        explore_rows.push_back(row);
    }
    for (auto& row : explore_rows) {
        row.speedup = row.seconds > 0.0 ? explore_rows.front().seconds / row.seconds
                                        : 0.0;
    }
    const double parallelism = effective_parallelism(4);

    // --- batched vs scalar parameter stage on a (Nc, v) axis ---------------
    // The tentpole number: a fixed-geometry 64-point (Nc x v) axis on the
    // 50x50 fabric, evaluated point-by-point as one-point batches on one
    // engine (E[S_q] slot warm after the first point — the strongest
    // scalar baseline) against ONE estimate_batch call.  The ratio is per-point
    // throughput, machine-independent, and gated in bench/baselines.json.
    // Every sweep_perf run also asserts parity: each batched estimate must
    // equal its scalar twin bit for bit, or the artifact reports
    // parity_ok=false and the baseline gate fails CI.
    std::vector<core::ParameterPoint> axis_points;
    for (int nc = 2; nc <= 9; ++nc) {
        for (const double v : {0.00025, 0.0005, 0.001, 0.002, 0.004, 0.008,
                               0.016, 0.032}) {
            axis_points.push_back({nc, v});
        }
    }
    const core::EstimationEngine scalar_engine(params); // 50x50 grid from above
    const core::EstimationEngine batched_engine(params);
    std::vector<core::LeqaEstimate> scalar_estimates(axis_points.size());
    std::vector<core::LeqaEstimate> batched_estimates;
    const double scalar_axis_s = best_of(3, [&] {
        for (std::size_t i = 0; i < axis_points.size(); ++i) {
            scalar_estimates[i] = std::move(
                scalar_engine.estimate_batch(profile, {&axis_points[i], 1}).front());
        }
    });
    const double batched_axis_s = best_of(3, [&] {
        batched_estimates = batched_engine.estimate_batch(profile, axis_points);
    });
    const double scalar_axis_point_s =
        scalar_axis_s / static_cast<double>(axis_points.size());
    const double batched_axis_point_s =
        batched_axis_s / static_cast<double>(axis_points.size());
    const double batched_ratio =
        batched_axis_s > 0.0 ? scalar_axis_s / batched_axis_s : 0.0;

    bool parity_ok = batched_estimates.size() == scalar_estimates.size();
    for (std::size_t i = 0; parity_ok && i < batched_estimates.size(); ++i) {
        parity_ok = batched_estimates[i].latency_us == scalar_estimates[i].latency_us &&
                    batched_estimates[i].l_cnot_avg_us ==
                        scalar_estimates[i].l_cnot_avg_us &&
                    batched_estimates[i].critical_cnots ==
                        scalar_estimates[i].critical_cnots &&
                    batched_estimates[i].e_sq == scalar_estimates[i].e_sq;
    }
    // The scalar engine runs the same lane kernel, so parity_ok alone
    // cannot catch a kernel bug.  Check every batched point against the
    // push-based sweep (graph::longest_path and its predecessor walk) over
    // the point's own per-kind delays: latency and census must be equal.
    // Timed as well: the per-point cost of that sweep over the batched
    // per-point cost is the kernel's same-box speedup.
    std::vector<double> reference_lengths(batched_estimates.size());
    std::vector<qodg::PathCensus> reference_censuses(batched_estimates.size());
    const double reference_axis_s = best_of(3, [&] {
        for (std::size_t i = 0; i < batched_estimates.size(); ++i) {
            const core::LeqaEstimate& estimate = batched_estimates[i];
            std::array<double, circuit::kGateKindCount> delays{};
            for (std::size_t k = 0; k < circuit::kGateKindCount; ++k) {
                if (profile.gate_counts[k] == 0) continue;
                const auto kind = static_cast<circuit::GateKind>(k);
                delays[k] = params.delay_us(kind) + (kind == circuit::GateKind::Cnot
                                                         ? estimate.l_cnot_avg_us
                                                         : estimate.l_one_qubit_avg_us);
            }
            const qodg::LongestPath lp = graph.longest_path(graph.node_delays(delays));
            reference_lengths[i] = lp.length;
            reference_censuses[i] = graph.census(graph.critical_path(lp));
        }
    });
    const double reference_axis_point_s =
        reference_axis_s / static_cast<double>(axis_points.size());
    const double reference_speedup =
        batched_axis_s > 0.0 ? reference_axis_s / batched_axis_s : 0.0;
    bool reference_parity_ok = batched_estimates.size() == axis_points.size();
    for (std::size_t i = 0; reference_parity_ok && i < batched_estimates.size(); ++i) {
        const qodg::PathCensus& census = batched_estimates[i].critical_census;
        reference_parity_ok = batched_estimates[i].latency_us == reference_lengths[i] &&
                              census.by_kind == reference_censuses[i].by_kind &&
                              census.total_ops == reference_censuses[i].total_ops;
    }

    // --- allocations: cold run per FT op, serial explore per point ---------
    const char* const cold_circuit = "gf2^64mult";
    // Generated before the counted run: generating it the first time
    // searches for the degree-64 irreducible polynomial, which
    // mathx::irreducible_middle_terms memoizes for the whole process, so
    // without this the count would depend on whether an earlier section
    // happened to generate the circuit (735 more allocations when none did).
    const circuit::Circuit cold_pre_ft = pipeline::CircuitSource::from_bench(cold_circuit).load();
    std::size_t cold_ft_ops = 0;
    const AllocationCount cold_allocations = count_allocations([&] {
        pipeline::Pipeline fresh;
        const pipeline::EstimationResult result = fresh.run(
            pipeline::EstimationRequest(pipeline::CircuitSource::from_bench(cold_circuit)));
        cold_ft_ops = result.circuit.ft_ops;
    });
    // The same circuit as an FT netlist file, estimated with synthesis off.
    const circuit::Circuit cold_ft = synth::ft_synthesize(cold_pre_ft).circuit;
    const std::string cold_ft_path =
        (std::filesystem::temp_directory_path() / "leqa_sweep_perf_cold_ft.qasm").string();
    parser::write_file(cold_ft_path, parser::write_qasm(cold_ft));
    std::size_t cold_file_ft_ops = 0;
    const AllocationCount cold_file_allocations = count_allocations([&] {
        pipeline::PipelineConfig config;
        config.auto_synthesize = false;
        pipeline::Pipeline fresh(config);
        const pipeline::EstimationResult result = fresh.run(
            pipeline::EstimationRequest(pipeline::CircuitSource::from_path(cold_ft_path)));
        cold_file_ft_ops = result.circuit.ft_ops;
    });
    std::filesystem::remove(cold_ft_path);

    // A file of blank lines holds no gate, yet a reservation sized from its
    // newline count alone took 10 B per byte for the tape and 40 for the
    // FT circuit a map reads from the kept text: about 51 B per text byte.
    constexpr std::size_t kBlankBytes = std::size_t{1} << 20;
    const std::string blank_path =
        (std::filesystem::temp_directory_path() / "leqa_sweep_perf_blank.qasm").string();
    parser::write_file(blank_path, std::string(kBlankBytes, '\n'));
    const AllocationCount blank_allocations = count_allocations([&] {
        pipeline::Pipeline fresh;
        (void)fresh.run(pipeline::EstimationRequest(
            pipeline::CircuitSource::from_path(blank_path), pipeline::RunMode::Map));
    });
    std::filesystem::remove(blank_path);

    // Seeded random routes on a 60x60 torus into one buffer, as a QSPR map
    // routes: a closed-form route allocates only when the buffer grows, and
    // route state kept per destination (a next-hop table the size of the
    // fabric) would show here as hundreds of bytes per hop.
    const fabric::TorusTopology route_torus(60, 60);
    constexpr std::size_t kRoutes = 1000;
    std::size_t route_hops = 0;
    util::Rng route_rng(2501);
    const auto random_ulb = [&] {
        return route_torus.ulb_coord(
            static_cast<fabric::UlbId>(route_rng.index(route_torus.num_ulbs())));
    };
    const AllocationCount route_allocations = count_allocations([&] {
        std::vector<fabric::SegmentId> route;
        for (std::size_t i = 0; i < kRoutes; ++i) {
            const fabric::UlbCoord from = random_ulb();
            route_torus.route(from, random_ulb(), route);
            route_hops += route.size();
        }
    });

    // QSPR maps of gf2^16mult (full size under every knob) at the 60x60
    // defaults; maze routing on the grid is the default map.  A map fills
    // one ring buffer, one route buffer and one router frontier, so what it
    // allocates is mostly the channel table's growth; a node per new slot
    // and two vectors per maze route read 3.87 (grid, XY), 9.93 (grid,
    // maze) and 12.34 (torus, maze) allocations per FT op.
    struct QsprMapRow {
        const char* name;
        fabric::TopologyKind topology;
        qspr::RoutingAlgorithm routing;
        AllocationCount count;
    };
    std::vector<QsprMapRow> qspr_rows = {
        {"grid_xy", fabric::TopologyKind::Grid, qspr::RoutingAlgorithm::Xy, {}},
        {"grid_maze", fabric::TopologyKind::Grid, qspr::RoutingAlgorithm::Maze, {}},
        {"torus_maze", fabric::TopologyKind::Torus, qspr::RoutingAlgorithm::Maze, {}}};
    const circuit::Circuit map_ft = benchgen::make_ft_benchmark("gf2^16mult").circuit;
    for (QsprMapRow& row : qspr_rows) {
        fabric::PhysicalParams params;
        params.topology = row.topology;
        qspr::QsprOptions options;
        options.routing = row.routing;
        const qspr::QsprMapper mapper(params, options);
        row.count = count_allocations([&] { (void)mapper.map(map_ft); });
    }

    // --- front end: synthesis and the reader into the tape vs feeding -----
    // Three ways to build the same tape for the cold circuit, timed after
    // the cold counts above so they stay cold: its FT circuit fed gate by
    // gate into a Qodg::Builder, as Qodg(circuit) does; synthesize_into a
    // Builder from its pre-FT circuit, which writes each lowered Toffoli as
    // one block; and the QASM-subset reader streaming the circuit's FT text
    // into a Builder, as the pipeline reads a path source.  All include
    // freezing the tape.  Synthesis does more work per op, so it reads below
    // 1 when it too appends gate by gate (0.69-0.75 on a shared 4-vCPU VM).
    // The reader and the feed both end in add_gate, so their ratio is the
    // cost of reading the text: the byte-at-a-time scanner read about 5.
    // The rounds interleave, so host drift moves all three minima alike.
    const auto synthesize_tape = [&] {
        qodg::Qodg::Builder tape;
        (void)synth::synthesize_into(cold_pre_ft, {}, tape);
        return qodg::Qodg(std::move(tape));
    };
    const std::string cold_ft_text = parser::write_qasm(cold_ft);
    const auto read_tape = [&] {
        qodg::Qodg::Builder tape;
        tape.reserve_gates(parser::gates_to_reserve(cold_ft_text));
        parser::parse_qasm_into(cold_ft_text, "sweep_perf", tape);
        return qodg::Qodg(std::move(tape));
    };
    double feed_s = 1e300;
    double synth_s = 1e300;
    double reader_s = 1e300;
    for (int round = 0; round < 30; ++round) {
        feed_s = std::min(feed_s, best_of(1, [&] { (void)qodg::Qodg(cold_ft); }));
        synth_s = std::min(synth_s, best_of(1, [&] { (void)synthesize_tape(); }));
        reader_s = std::min(reader_s, best_of(1, [&] { (void)read_tape(); }));
    }
    const double synth_vs_feed = synth_s > 0.0 ? feed_s / synth_s : 0.0;
    const double reader_vs_feed = feed_s > 0.0 ? reader_s / feed_s : 0.0;
    const qodg::Qodg fed_tape(cold_ft);
    const qodg::Qodg synthesized_tape = synthesize_tape();
    const qodg::Qodg read_tape_graph = read_tape();
    const std::string fed_dot = fed_tape.to_dot();
    const bool tape_parity_ok = fed_tape.gate_counts() == synthesized_tape.gate_counts() &&
                                fed_tape.gate_counts() == read_tape_graph.gate_counts() &&
                                fed_dot == synthesized_tape.to_dot() &&
                                fed_dot == read_tape_graph.to_dot();

    // Toolchain note: vectorization silently turning off (an -O0 build, or
    // a compiler losing the SIMD lanes) shows up here, next to the ratio it
    // would regress.
#if defined(__AVX512F__)
    const char* simd = "avx512f";
#elif defined(__AVX2__)
    const char* simd = "avx2";
#elif defined(__AVX__)
    const char* simd = "avx";
#elif defined(__SSE2__) || defined(__x86_64__)
    const char* simd = "sse2";
#elif defined(__ARM_NEON)
    const char* simd = "neon";
#else
    const char* simd = "none";
#endif
#if defined(__OPTIMIZE__)
    const bool optimized = true;
#else
    const bool optimized = false;
#endif

    std::printf("circuit: gf2^%dmult  (%zu FT ops, %zu qubits)\n", n, ft.size(),
                ft.num_qubits());
    std::printf("sweep over %zu fabric sides:\n", sides.size());
    std::printf("  cold (fresh session) : %.4f s\n", cold_s);
    std::printf("  warm (cached profile): %.4f s  (%.2e s/point)\n", warm_s,
                warm_point_s);
    std::printf("per point on a 50x50 fabric:\n");
    std::printf("  seed path (reference)        : %.3e s\n", seed_point_s);
    std::printf("  staged, geometry moving      : %.3e s  (%.1fx)\n", staged_point_s,
                per_point_speedup);
    std::printf("  staged, geometry fixed (memo): %.3e s  (%.1fx)\n",
                staged_memo_point_s, memo_point_speedup);
    std::printf("per point by topology (geometry moving, 50x50-area fabric):\n");
    for (const auto& row : topology_rows) {
        std::printf("  %-5s : %.3e s/point  (%.2fx grid), warm sweep %.4f s\n",
                    row.name.c_str(), row.point_s, row.vs_grid, row.warm_s);
    }
    std::printf("service overhead (warm, 1 worker, %d rounds of %d requests, medians):\n",
                service_rounds, service_reps);
    std::printf("  direct Pipeline::run : %.3e s/request\n", direct_req_s);
    std::printf("  Service submit+wait  : %.3e s/request  (%.3fx direct)\n",
                service_req_s, service_overhead);
    std::printf("  service extras       : %.2f allocations, %.0f bytes per request\n",
                extra_allocations_per_request, extra_bytes_per_request);
    std::printf("parallel explore (%zu-point cross-product, effective parallelism "
                "%.2f of 4 threads):\n",
                explore_points.size(), parallelism);
    for (const auto& row : explore_rows) {
        std::printf("  %zu thread%s : %.4f s  (%.0f points/s, %.2fx serial, "
                    "bit-identical %s)\n",
                    row.threads, row.threads == 1 ? " " : "s", row.seconds,
                    row.points_per_s, row.speedup, row.bit_identical ? "yes" : "NO");
    }
    std::printf("batched vs scalar parameter stage (%zu-point Nc x v axis, 50x50):\n",
                axis_points.size());
    std::printf("  scalar engine loop : %.3e s/point\n", scalar_axis_point_s);
    std::printf("  estimate_batch     : %.3e s/point  (%.2fx, parity %s, push-based "
                "reference %s)\n",
                batched_axis_point_s, batched_ratio, parity_ok ? "ok" : "BROKEN",
                reference_parity_ok ? "ok" : "BROKEN");
    std::printf("  push-based sweep   : %.3e s/point  (batched %.2fx faster)\n",
                reference_axis_point_s, reference_speedup);
    std::printf("  toolchain: %s, simd %s, optimized %s\n", __VERSION__, simd,
                optimized ? "yes" : "NO");
    std::printf("front end, %s (%zu FT ops), best of 30 interleaved rounds:\n", cold_circuit,
                cold_ft.size());
    std::printf("  FT circuit fed to a builder : %.2f ns/op\n",
                1e9 * feed_s / static_cast<double>(cold_ft.size()));
    std::printf("  synthesis into the tape     : %.2f ns/op  (%.2fx, tape parity %s)\n",
                1e9 * synth_s / static_cast<double>(cold_ft.size()), synth_vs_feed,
                tape_parity_ok ? "ok" : "BROKEN");
    std::printf("  FT .qasm text read to a tape: %.2f ns/op  (%.2fx the feed)\n",
                1e9 * reader_s / static_cast<double>(cold_ft.size()), reader_vs_feed);
    std::printf("allocations:\n");
    std::printf("  cold run, %s (%zu FT ops): %zu allocations, %zu bytes "
                "(%.4f and %.1f per FT op)\n",
                cold_circuit, cold_ft_ops, cold_allocations.allocations, cold_allocations.bytes,
                per(cold_allocations.allocations, cold_ft_ops),
                per(cold_allocations.bytes, cold_ft_ops));
    std::printf("  cold FT .qasm run, %s (%zu FT ops): %zu allocations, %zu bytes "
                "(%.4f allocations, %.1f bytes per FT op)\n",
                cold_circuit, cold_file_ft_ops, cold_file_allocations.allocations,
                cold_file_allocations.bytes,
                per(cold_file_allocations.allocations, cold_file_ft_ops),
                per(cold_file_allocations.bytes, cold_file_ft_ops));
    std::printf("  serial explore, %zu points: %zu allocations, %zu bytes "
                "(%.2f and %.0f per point)\n",
                explore_points.size(), explore_allocations.allocations,
                explore_allocations.bytes,
                per(explore_allocations.allocations, explore_points.size()),
                per(explore_allocations.bytes, explore_points.size()));
    std::printf("  %zu routes on a 60x60 torus (%zu hops): %zu allocations, %zu bytes "
                "(%.1f bytes per hop)\n",
                kRoutes, route_hops, route_allocations.allocations, route_allocations.bytes,
                per(route_allocations.bytes, route_hops));
    for (const QsprMapRow& row : qspr_rows) {
        std::printf("  QSPR map of gf2^16mult, %s (%zu FT ops): %zu allocations "
                    "(%.2f per FT op)\n",
                    row.name, map_ft.size(), row.count.allocations,
                    per(row.count.allocations, map_ft.size()));
    }
    std::printf("  cold map of %zu blank lines: %zu allocations, %zu bytes "
                "(%.2f bytes per text byte)\n",
                kBlankBytes, blank_allocations.allocations, blank_allocations.bytes,
                per(blank_allocations.bytes, kBlankBytes));

    // --- artifact ----------------------------------------------------------
    util::JsonWriter json;
    json.begin_object();
    json.kv("bench", "sweep_perf");
    json.key("circuit").begin_object();
    json.kv("name", "gf2^" + std::to_string(n) + "mult");
    json.kv("ft_ops", ft.size());
    json.kv("qubits", ft.num_qubits());
    json.end_object();
    json.key("pipeline_sweep").begin_object();
    json.kv("points", sides.size());
    json.kv("cold_s", cold_s);
    json.kv("warm_s", warm_s);
    json.kv("warm_per_point_s", warm_point_s);
    json.end_object();
    json.key("per_point_50x50").begin_object();
    json.kv("seed_s", seed_point_s);
    json.kv("staged_s", staged_point_s);
    json.kv("speedup", per_point_speedup);
    json.kv("staged_memo_s", staged_memo_point_s);
    json.kv("memo_speedup", memo_point_speedup);
    json.end_object();
    json.key("topologies").begin_array();
    for (const auto& row : topology_rows) {
        json.begin_object();
        json.kv("name", row.name);
        json.kv("warm_sweep_s", row.warm_s);
        json.kv("per_point_s", row.point_s);
        json.kv("per_point_vs_grid", row.vs_grid);
        json.end_object();
    }
    json.end_array();
    json.key("service_overhead").begin_object();
    json.kv("requests", static_cast<long long>(service_reps));
    json.kv("rounds", static_cast<long long>(service_rounds));
    json.kv("direct_per_request_s", direct_req_s);
    json.kv("service_per_request_s", service_req_s);
    json.kv("overhead_ratio", service_overhead);
    json.kv("extra_allocations_per_request", extra_allocations_per_request);
    json.kv("extra_bytes_per_request", extra_bytes_per_request);
    json.end_object();
    json.key("explore").begin_object();
    json.kv("points", explore_points.size());
    json.kv("effective_parallelism", parallelism);
    json.key("threads").begin_array();
    for (const auto& row : explore_rows) {
        json.begin_object();
        json.kv("threads", row.threads);
        json.kv("seconds", row.seconds);
        json.kv("points_per_s", row.points_per_s);
        json.kv("speedup", row.speedup);
        json.kv("bit_identical", row.bit_identical);
        json.end_object();
    }
    json.end_array();
    json.kv("speedup_4t", explore_rows.back().speedup);
    json.kv("bit_identical_4t", explore_rows.back().bit_identical);
    json.end_object();
    json.key("batched_vs_scalar").begin_object();
    json.kv("points", axis_points.size());
    json.kv("scalar_per_point_s", scalar_axis_point_s);
    json.kv("batched_per_point_s", batched_axis_point_s);
    json.kv("per_point_ratio", batched_ratio);
    json.kv("reference_per_point_s", reference_axis_point_s);
    json.kv("reference_speedup", reference_speedup);
    json.kv("parity_ok", parity_ok);
    json.kv("reference_parity_ok", reference_parity_ok);
    json.key("toolchain").begin_object();
    json.kv("compiler", __VERSION__);
    json.kv("simd", simd);
    json.kv("optimized", optimized);
    json.end_object();
    json.end_object();
    json.key("front_end").begin_object();
    json.kv("circuit", cold_circuit);
    json.kv("ft_ops", cold_ft.size());
    json.kv("feed_per_op_s", feed_s / static_cast<double>(cold_ft.size()));
    json.kv("synth_per_op_s", synth_s / static_cast<double>(cold_ft.size()));
    json.kv("synth_vs_feed_speedup", synth_vs_feed);
    json.kv("reader_per_op_s", reader_s / static_cast<double>(cold_ft.size()));
    json.kv("reader_vs_feed", reader_vs_feed);
    json.kv("tape_parity_ok", tape_parity_ok);
    json.end_object();
    json.key("allocations").begin_object();
    json.key("cold_run").begin_object();
    json.kv("circuit", cold_circuit);
    json.kv("ft_ops", cold_ft_ops);
    json.kv("allocations", cold_allocations.allocations);
    json.kv("bytes", cold_allocations.bytes);
    json.kv("allocations_per_ft_op", per(cold_allocations.allocations, cold_ft_ops));
    json.kv("bytes_per_ft_op", per(cold_allocations.bytes, cold_ft_ops));
    json.end_object();
    json.key("cold_ft_file").begin_object();
    json.kv("circuit", cold_circuit);
    json.kv("ft_ops", cold_file_ft_ops);
    json.kv("allocations", cold_file_allocations.allocations);
    json.kv("bytes", cold_file_allocations.bytes);
    json.kv("allocations_per_ft_op",
            per(cold_file_allocations.allocations, cold_file_ft_ops));
    json.kv("bytes_per_ft_op", per(cold_file_allocations.bytes, cold_file_ft_ops));
    json.end_object();
    json.key("explore").begin_object();
    json.kv("circuit", "gf2^" + std::to_string(explore_circuit.n) + "mult");
    json.kv("points", explore_points.size());
    json.kv("allocations", explore_allocations.allocations);
    json.kv("bytes", explore_allocations.bytes);
    json.kv("allocations_per_point", per(explore_allocations.allocations, explore_points.size()));
    json.kv("bytes_per_point", per(explore_allocations.bytes, explore_points.size()));
    json.end_object();
    json.key("torus_routes").begin_object();
    json.kv("routes", kRoutes);
    json.kv("hops", route_hops);
    json.kv("allocations", route_allocations.allocations);
    json.kv("bytes", route_allocations.bytes);
    json.kv("bytes_per_hop", per(route_allocations.bytes, route_hops));
    json.end_object();
    json.key("qspr_map").begin_object();
    for (const QsprMapRow& row : qspr_rows) {
        json.key(row.name).begin_object();
        json.kv("ft_ops", map_ft.size());
        json.kv("allocations", row.count.allocations);
        json.kv("allocations_per_ft_op", per(row.count.allocations, map_ft.size()));
        json.end_object();
    }
    json.end_object();
    json.key("blank_file_map").begin_object();
    json.kv("text_bytes", kBlankBytes);
    json.kv("allocations", blank_allocations.allocations);
    json.kv("bytes", blank_allocations.bytes);
    json.kv("bytes_per_text_byte", per(blank_allocations.bytes, kBlankBytes));
    json.end_object();
    json.end_object();
    json.end_object();

    const std::string path =
        util::env_string("LEQA_SWEEP_JSON").value_or("BENCH_sweep.json");
    std::ofstream out(path);
    out << json.str() << "\n";
    std::printf("\nwrote %s\n", path.c_str());
    return 0;
}
