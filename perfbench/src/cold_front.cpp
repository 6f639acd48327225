/// \file cold_front.cpp
/// \brief cold_front: every iteration uses fresh pipelines and estimates
///        large circuits from all three input paths -- the generators, a
///        pre-FT .qasm, and an FT .qasm with synthesis off.  The front end
///        (parser, benchgen, synth, QODG, IIG, profile) does ~98% of the work.
#include <cstdio>

#include "layers.h"
#include "oracle.h"

namespace perfbench {
namespace {

using namespace leqa;

class ColdFront final : public Workload {
public:
    explicit ColdFront(Context& ctx) : ctx_(ctx), rng_(ctx.options.seed) {
        qasm_ = ctx.options.workdir + "/cold_front.qasm";
        ft_qasm_ = ctx.options.workdir + "/cold_front_ft.qasm";
        for (const std::string& name : kColdBenches) {
            inputs_.push_back({CircuitInput::Kind::Bench, name, ""});
        }
        inputs_.push_back({CircuitInput::Kind::Qasm, kColdQasmCircuit, qasm_});
        inputs_.push_back({CircuitInput::Kind::FtQasm, kColdQasmCircuit, ft_qasm_});
    }

    void setup() override {
        const Span span("bench.fixtures");
        (void)write_qasm_fixtures(kColdQasmCircuit, qasm_, ft_qasm_);
    }

    void measure(double seconds) override {
        const double start = now_s();
        std::size_t i = 0;
        while (now_s() - start < seconds) iteration(i++);
        wall_s_ = now_s() - start;
    }

    void end_to_end(Report& report) override {
        const Samples requests = rate_.pooled();
        report.set("work_per_s", rate_.quiet_rate(), "1/s");
        report.set("latency_p50_s", rate_.quiet_median(), "s");
        char line[200];
        std::snprintf(line, sizeof line,
                      "cold_ft_ops_per_s            %.6g 1/s in the quietest sixth (%zu requests, "
                      "%.0f FT ops in %.3f s: %.6g 1/s overall)",
                      rate_.quiet_rate(), requests.size(), ft_ops_, wall_s_, ft_ops_ / wall_s_);
        report.note(line);
        std::snprintf(line, sizeof line, "cold_request_p50_s           %.6g s in the quietest sixth",
                      rate_.quiet_median());
        report.note(line);
        report.timing("  whole run", requests);
        for (const auto& [input, samples] : rate_.seconds) report.timing("  " + input, samples);
        std::snprintf(line, sizeof line, "pipeline front-end share     %.4f (resolve %.3f s + graphs %.3f s of %.3f s)",
                      (resolve_s_ + graphs_s_) / stage_total_s_, resolve_s_, graphs_s_,
                      stage_total_s_);
        report.note(line);
    }

    [[nodiscard]] std::size_t trace_iterations(double seconds) const override {
        return scaled_count(0.35, seconds); // a traced + untraced pass takes ~2.5 s
    }

    double run_iterations(std::size_t iterations) override {
        const double start = now_s();
        for (std::size_t i = 0; i < iterations; ++i) iteration(i);
        return now_s() - start;
    }

    void layer_inputs(LayerInputs& inputs) override {
        for (const pipeline::CacheStats& stats : caches_) inputs.add_cache(stats);
    }

    void verify() override {} // every request is checked as it completes

private:
    /// The seeded input order of iteration i (the same in every pass).
    const std::vector<std::size_t>& order(std::size_t i) {
        while (orders_.size() <= i) {
            std::vector<std::size_t> next(inputs_.size());
            for (std::size_t k = 0; k < next.size(); ++k) next[k] = k;
            rng_.shuffle(next);
            orders_.push_back(std::move(next));
        }
        return orders_[i];
    }

    void check(const CircuitInput& input, double latency_us) {
        ctx_.tally->check(close_rel(latency_us, ctx_.expected->leqa_us(input.name)),
                          "cold_front: " + input.label() + " LEQA latency differs from the "
                          "recorded reference");
    }

    void iteration(std::size_t i) {
        const Span root("run.iteration");
        for (const std::size_t k : order(i)) {
            if (tracer().enabled()) {
                traced_request(inputs_[k]);
            } else {
                request(inputs_[k]);
            }
        }
    }

    /// One cold request on a fresh pipeline: every request is a cache miss,
    /// and the peak footprint does not depend on the seeded order.
    void request(const CircuitInput& input) {
        pipeline::PipelineConfig config;
        config.auto_synthesize = input.kind != CircuitInput::Kind::FtQasm;
        pipeline::Pipeline pipe(config);
        const double start = now_s();
        const pipeline::EstimationResult result =
            pipe.run(pipeline::EstimationRequest(input.source()));
        const double seconds = now_s() - start;
        rate_.add(input.label(), static_cast<double>(result.circuit.ft_ops), seconds);
        ft_ops_ += static_cast<double>(result.circuit.ft_ops);
        resolve_s_ += result.times.resolve_s;
        graphs_s_ += result.times.graphs_s;
        stage_total_s_ += result.times.total_s;
        check(input, result.estimate->latency_us);
        caches_.push_back(pipe.cache_stats());
    }

    /// The same request, layer by layer.
    void traced_request(const CircuitInput& input) {
        const Span request("pipeline.request");
        const FrontEnd front = build_front_end(input);
        check(input, traced_estimate(*front.qodg, front.profile, fabric::PhysicalParams{})
                         .latency_us);
    }

    Context& ctx_;
    Inputs rng_;
    std::string qasm_, ft_qasm_;
    std::vector<CircuitInput> inputs_;
    std::vector<std::vector<std::size_t>> orders_;

    PassRate rate_; ///< FT ops and seconds per request, by input
    double ft_ops_ = 0, wall_s_ = 0;
    double resolve_s_ = 0, graphs_s_ = 0, stage_total_s_ = 0;
    std::vector<pipeline::CacheStats> caches_; ///< one per untraced pipeline
};

} // namespace

std::unique_ptr<Workload> make_cold_front(Context& ctx) { return std::make_unique<ColdFront>(ctx); }

} // namespace perfbench
