/// \file explore_warm.cpp
/// \brief explore_warm: one warm Pipeline (circuits resolved and graphs
///        built in setup) runs 768-point explorations, speed sweeps, and
///        scalar estimates with per-request parameter overrides.  Almost all
///        the work is the parameter stage: engine batch and scalar paths,
///        fabric coverage, E[S_q], the critical path.
#include <cstdio>
#include <set>
#include <tuple>

#include "fabric/topology.h"
#include "layers.h"
#include "oracle.h"

namespace perfbench {
namespace {

using namespace leqa;

/// Scalar estimates per step; each override is one of the step's
/// exploration points, so its latency must match that point exactly.
constexpr std::size_t kScalarPerStep = 48;

class ExploreWarm final : public Workload {
public:
    explicit ExploreWarm(Context& ctx) : ctx_(ctx), rng_(ctx.options.seed) {}

    void setup() override {
        pipe_ = std::make_unique<pipeline::Pipeline>();
        for (const std::string& name : kExploreCircuits) {
            const Span span("pipeline.resolve");
            (void)pipe_->resolve(pipeline::CircuitSource::from_bench(name))->profile();
        }
    }

    void measure(double seconds) override {
        const double start = now_s();
        std::size_t i = 0;
        while (now_s() - start < seconds) step(i++);
        wall_s_ = now_s() - start;
    }

    void end_to_end(Report& report) override {
        const double points = batch_points_ + static_cast<double>(scalar_s_.size());
        report.set("work_per_s", rate_.quiet_rate(), "1/s");
        report.set("latency_p50_s", scalar_s_.quiet_median(), "s");
        char line[200];
        std::snprintf(line, sizeof line,
                      "warm_points_per_s            %.6g 1/s in the quietest sixth (%.0f points in "
                      "%.3f s, explore %.3f s: %.6g 1/s overall)",
                      rate_.quiet_rate(), points, wall_s_, explore_s_, points / wall_s_);
        report.note(line);
        std::snprintf(line, sizeof line, "warm_estimate_p50_s          %.6g s in the quietest sixth",
                      scalar_s_.quiet_median());
        report.note(line);
        report.timing("  whole run", scalar_s_);
    }

    [[nodiscard]] std::size_t trace_iterations(double seconds) const override {
        return scaled_count(1.2, seconds); // a traced + untraced step takes ~0.7 s
    }

    double run_iterations(std::size_t iterations) override {
        const double start = now_s();
        for (std::size_t i = 0; i < iterations; ++i) step(i);
        return now_s() - start;
    }

    void layer_inputs(LayerInputs& inputs) override {
        inputs.add_cache(pipe_->cache_stats());
        inputs.batch_points += traced_batch_points_;
    }

    void verify() override {} // every output is checked as it completes

private:
    /// Circuit of step i: each block of steps is a seeded permutation of
    /// the circuits, so every seed does the same work per block.
    const std::string& circuit_of(std::size_t i) {
        const std::size_t n = kExploreCircuits.size();
        while (order_.size() <= i) {
            std::vector<std::size_t> block(n);
            for (std::size_t k = 0; k < n; ++k) block[k] = k;
            rng_.shuffle(block);
            order_.insert(order_.end(), block.begin(), block.end());
        }
        return kExploreCircuits[order_[i]];
    }

    void step(std::size_t i) {
        const Span root("run.iteration");
        const bool traced = tracer().enabled();
        const std::string& name = circuit_of(i);
        const auto source = pipeline::CircuitSource::from_bench(name);
        Tally& tally = *ctx_.tally;

        const double step_start = now_s();
        const core::ExplorationResult explored = [&] {
            const Span span("engine.explore");
            return pipe_->explore(source, explore_spec());
        }();
        explore_s_ += now_s() - step_start;
        tally.check(explored.best_index == ctx_.expected->explore_best(name) &&
                        close_rel(checksum_us(explored.points),
                                  ctx_.expected->explore_checksum_us(name)),
                    "explore_warm: exploration of " + name + " differs from the recorded one");
        if (traced) probe_layers(name);

        const core::SweepResult swept = [&] {
            const Span span("engine.sweep");
            return pipe_->sweep_speed(source, kSweepSpeeds);
        }();
        tally.check(close_rel(checksum_us(swept.points), ctx_.expected->sweep_checksum_us(name)),
                    "explore_warm: speed sweep of " + name + " differs from the recorded one");
        const double points = static_cast<double>(explored.points.size() + swept.points.size());
        batch_points_ += points;
        if (traced) traced_batch_points_ += points;

        for (std::size_t k = 0; k < kScalarPerStep; ++k) {
            const core::SweepPoint& point = explored.points[rng_.index(explored.points.size())];
            double latency = 0.0;
            if (traced) {
                pipeline::CachedCircuitPtr entry;
                {
                    const Span span("pipeline.resolve");
                    entry = pipe_->resolve(source);
                }
                latency = traced_estimate(entry->qodg(), entry->profile(), point.params).latency_us;
            } else {
                pipeline::EstimationRequest request(source);
                request.params = point.params;
                const double start = now_s();
                latency = pipe_->run(request).estimate->latency_us;
                scalar_s_.add(now_s() - start);
            }
            tally.check(close_rel(latency, point.estimate.latency_us),
                        "explore_warm: scalar estimate differs from its exploration point");
        }
        rate_.add(name, points + kScalarPerStep, now_s() - step_start);
    }

    /// Re-invoke the parameter-stage layer functions the exploration ran
    /// internally: coverage + E[S_q] per distinct geometry, and one
    /// lane-blocked longest path + census over 8 delay tables.
    void probe_layers(const std::string& name) {
        const pipeline::CachedCircuitPtr entry =
            pipe_->resolve(pipeline::CircuitSource::from_bench(name));
        const core::CircuitProfile& profile = entry->profile();
        const auto q_total = static_cast<long long>(profile.num_qubits);
        std::set<std::tuple<int, int, int>> seen;
        for (const fabric::PhysicalParams& params : core::exploration_configurations(
                 profile.num_qubits, fabric::PhysicalParams{}, explore_spec())) {
            if (!seen.insert({static_cast<int>(params.topology), params.width, params.height})
                     .second) {
                continue;
            }
            std::optional<fabric::CoverageHistogram> histogram;
            {
                const Span span("fabric.coverage");
                const auto topology = fabric::make_topology(params);
                histogram =
                    topology->coverage_histogram(topology->zone_extent(profile.zone_area_b));
                layer_counts().coverage_bins += static_cast<double>(histogram->bins().size());
            }
            const Span span("engine.surfaces");
            (void)core::EstimationEngine::expected_surfaces(*histogram, q_total,
                                                            std::min<long long>(q_total, 20));
        }
        const fabric::PhysicalParams base;
        std::vector<std::array<double, circuit::kGateKindCount>> tables(8);
        for (std::size_t lane = 0; lane < tables.size(); ++lane) {
            tables[lane] = ft_delays(base, static_cast<double>(lane) * base.t_move_us);
        }
        qodg::LongestPathLanes lanes;
        {
            const Span span("qodg.longest_path");
            entry->qodg().longest_path_lanes(tables, lanes);
        }
        std::vector<qodg::PathCensus> census(tables.size());
        const Span span("qodg.census");
        entry->qodg().critical_census_lanes(lanes, census);
    }

    Context& ctx_;
    Inputs rng_;
    std::unique_ptr<pipeline::Pipeline> pipe_;
    std::vector<std::size_t> order_;

    Samples scalar_s_;
    PassRate rate_; ///< points (batch + scalar) per step, by circuit
    double batch_points_ = 0, traced_batch_points_ = 0, wall_s_ = 0, explore_s_ = 0;
};

} // namespace

std::unique_ptr<Workload> make_explore_warm(Context& ctx) {
    return std::make_unique<ExploreWarm>(ctx);
}

} // namespace perfbench
