/// \file map_place.cpp
/// \brief map_place: RunMode::Both (LEQA + the QSPR detailed mapper) on six
///        suite circuits, plus seeded greedy `core::optimize_placement` with
///        a fixed move budget.  The only workload that runs QSPR placement,
///        routing and scheduling, and `core::PlacedTimer`.
#include <cmath>
#include <cstdio>
#include <map>

#include "layers.h"
#include "oracle.h"

namespace perfbench {
namespace {

using namespace leqa;

class MapPlace final : public Workload {
public:
    explicit MapPlace(Context& ctx) : ctx_(ctx), rng_(ctx.options.seed) {}

    void setup() override {
        pipe_ = std::make_unique<pipeline::Pipeline>();
        for (const std::string& name : kMapCircuits) {
            const Span span("pipeline.resolve");
            (void)pipe_->resolve(pipeline::CircuitSource::from_bench(name))->profile();
        }
    }

    void measure(double seconds) override {
        const double start = now_s();
        std::size_t i = 0;
        while (now_s() - start < seconds) step(i++);
    }

    void end_to_end(Report& report) override {
        const Samples maps = rate_.pooled();
        const double map_s = maps.sum();
        double error_sum = 0.0;
        for (const auto& [name, error] : error_) error_sum += error;
        const double error_pct = 100.0 * error_sum / static_cast<double>(error_.size());
        report.set("work_per_s", rate_.quiet_rate(), "1/s");
        report.set("latency_p50_s", rate_.quiet_median(), "s");
        report.set("estimate_error_pct", error_pct, "%");
        char line[200];
        std::snprintf(line, sizeof line,
                      "map_ft_ops_per_s             %.6g 1/s in the quietest sixth (%zu maps, "
                      "%.0f FT ops in %.3f s: %.6g 1/s overall)",
                      rate_.quiet_rate(), maps.size(), map_ops_, map_s, map_ops_ / map_s);
        report.note(line);
        std::snprintf(line, sizeof line, "map_request_p50_s            %.6g s in the quietest sixth",
                      rate_.quiet_median());
        report.note(line);
        report.timing("  whole run", maps);
        std::snprintf(line, sizeof line,
                      "optimize_moves_per_s         %.6g 1/s (%zu greedy runs x %zu moves, %.3f s)",
                      moves_ / optimize_s_.sum(), optimize_s_.size(), kOptimizeMoves,
                      optimize_s_.sum());
        report.note(line);
        std::snprintf(line, sizeof line,
                      "estimate_error_pct           %.4f %% (mean |LEQA - QSPR| / QSPR, %zu circuits)",
                      error_pct, kMapCircuits.size());
        report.note(line);
    }

    [[nodiscard]] std::size_t trace_iterations(double seconds) const override {
        return scaled_count(0.5, seconds); // a traced + untraced pass takes ~1.7 s
    }

    double run_iterations(std::size_t iterations) override {
        const double start = now_s();
        for (std::size_t i = 0; i < iterations; ++i) step(i);
        return now_s() - start;
    }

    void layer_inputs(LayerInputs& inputs) override {
        inputs.add_cache(pipe_->cache_stats());
        for (const MapOutcome& outcome : traced_maps_) inputs.add_qspr(outcome.stats, outcome.ft_ops);
        for (const core::OptimizeResult& result : traced_optimizes_) inputs.add_optimize(result);
    }

    void verify() override {} // every output is checked as it completes

private:
    void step(std::size_t) {
        const Span root("run.iteration");
        const bool traced = tracer().enabled();
        Tally& tally = *ctx_.tally;

        std::vector<std::string> circuits = kMapCircuits;
        rng_.shuffle(circuits);
        for (const std::string& name : circuits) {
            const double start = now_s();
            MapOutcome outcome = map_circuit(*pipe_, name, traced);
            const double seconds = now_s() - start;
            rate_.add(name, static_cast<double>(outcome.ft_ops), seconds);
            map_ops_ += static_cast<double>(outcome.ft_ops);
            error_[name] = std::fabs(outcome.leqa_us - outcome.qspr_us) / outcome.qspr_us;
            tally.check(close_rel(outcome.leqa_us, ctx_.expected->leqa_us(name)) &&
                            close_rel(outcome.qspr_us, ctx_.expected->qspr_us(name)),
                        "map_place: " + name + " latencies differ from the recorded ones");
            if (traced) traced_maps_.push_back(std::move(outcome));
        }

        std::vector<std::string> optimized = kOptimizeCircuits;
        rng_.shuffle(optimized);
        for (const std::string& name : optimized) {
            const std::uint64_t seed = 1 + rng_.index(kOptimizeSeeds);
            const double start = now_s();
            core::OptimizeResult result = optimize_circuit(*pipe_, name, seed, kOptimizeMoves);
            optimize_s_.add(now_s() - start);
            moves_ += static_cast<double>(result.moves_attempted);
            tally.check(close_rel(result.final_latency_us,
                                  ctx_.expected->optimize_us(
                                      optimize_key(name, seed, kOptimizeMoves))),
                        "map_place: optimize of " + name + " differs from the recorded one");
            if (traced) traced_optimizes_.push_back(std::move(result));
        }
    }

    Context& ctx_;
    Inputs rng_;
    std::unique_ptr<pipeline::Pipeline> pipe_;

    Samples optimize_s_;
    PassRate rate_; ///< FT ops per RunMode::Both, by circuit
    double map_ops_ = 0, moves_ = 0;
    std::map<std::string, double> error_; ///< |LEQA - QSPR| / QSPR per circuit
    std::vector<MapOutcome> traced_maps_;
    std::vector<core::OptimizeResult> traced_optimizes_;
};

} // namespace

std::unique_ptr<Workload> make_map_place(Context& ctx) { return std::make_unique<MapPlace>(ctx); }

} // namespace perfbench
