/// \file pipeline_report.cpp
/// \brief End-to-end pipeline with machine-readable outputs: run a batch of
///        benchmarks through one Pipeline session (estimate + detailed
///        mapping), emit the batch JSON document plus the per-circuit
///        reports and the detailed schedule CSV -- the integration surface
///        a regression dashboard or plotting script would consume.
///
///   $ ./build/examples/pipeline_report [benchmark] [output-dir]
#include <cstdio>
#include <string>
#include <vector>

#include "parser/io.h"
#include "pipeline/pipeline.h"
#include "report/report.h"

int main(int argc, char** argv) {
    using namespace leqa;

    const std::string name = argc > 1 ? argv[1] : "hwb15ps";
    const std::string dir = argc > 2 ? argv[2] : ".";

    pipeline::PipelineConfig config; // Table 1
    config.qspr.collect_schedule = true;
    pipeline::Pipeline pipe(config);

    // A batch: the requested benchmark at the session fabric plus the same
    // circuit on a smaller fabric -- graphs are built once and shared.
    std::vector<pipeline::EstimationRequest> requests;
    requests.emplace_back(pipeline::CircuitSource::from_bench(name),
                          pipeline::RunMode::Both);
    {
        pipeline::EstimationRequest compact(pipeline::CircuitSource::from_bench(name),
                                            pipeline::RunMode::Estimate);
        fabric::PhysicalParams small = config.params;
        small.width = 40;
        small.height = 40;
        compact.params = small;
        compact.label = name + "@40x40";
        requests.push_back(std::move(compact));
    }
    const std::vector<util::Result<pipeline::EstimationResult>> outcomes =
        pipe.run_batch_results(requests);

    // The whole batch as one JSON document (a failed request becomes an
    // error entry instead of aborting the batch).
    const std::string batch_path = dir + "/pipeline_batch.json";
    parser::write_file(batch_path, report::batch_results_to_json(outcomes));
    for (const util::Result<pipeline::EstimationResult>& outcome : outcomes) {
        if (!outcome.ok()) {
            std::fprintf(stderr, "error: %s\n", outcome.status().to_string().c_str());
            return 1;
        }
    }

    // The detailed mapping of the first request: JSON + schedule CSV.
    const pipeline::EstimationResult& full = outcomes.front().value();
    const std::string result_path = dir + "/qspr_result.json";
    parser::write_file(result_path,
                       report::qspr_result_to_json(*full.mapping, full.params,
                                                   full.circuit.name));
    const pipeline::CachedCircuitPtr circuit = pipe.resolve(requests.front().source);
    const std::string schedule_path = dir + "/qspr_schedule.csv";
    parser::write_file(schedule_path,
                       report::schedule_to_csv(*full.mapping, circuit->ft()));

    std::printf("benchmark %s: %zu qubits, %zu FT ops\n", name.c_str(),
                full.circuit.qubits, full.circuit.ft_ops);
    std::printf("  LEQA estimate: %.4E s\n", full.estimate->latency_seconds());
    std::printf("  QSPR actual:   %.4E s\n", full.mapping->latency_us * 1e-6);
    std::printf("  error: %+.2f%%\n",
                100.0 * (full.estimate->latency_us - full.mapping->latency_us) /
                    full.mapping->latency_us);
    std::printf("  40x40 estimate: %.4E s (cached graphs: %s)\n",
                outcomes[1].value().estimate->latency_seconds(),
                pipe.cache_stats().to_string().c_str());
    std::printf("  batch JSON:    %s\n", batch_path.c_str());
    std::printf("  QSPR JSON:     %s\n", result_path.c_str());
    std::printf("  schedule CSV:  %zu ops -> %s\n", full.mapping->schedule.size(),
                schedule_path.c_str());
    return 0;
}
