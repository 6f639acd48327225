/// \file table3_runtime.cpp
/// \brief Reproduces the paper's Table 3: benchmark sizes and the runtime
///        of QSPR vs LEQA, with the speedup column.
///
/// Claims under test: LEQA is orders of magnitude faster than the detailed
/// mapper on mid-size benchmarks, and the speedup *grows* with operation
/// count (8x at the small end to >100x on gf2^256mult in the paper).
/// Absolute runtimes are hardware- and implementation-dependent; the shape
/// (monotone-ish growth of the speedup with op count, superlinear QSPR
/// scaling vs near-linear LEQA scaling) is what must reproduce.
///
/// Each tool is reported twice: as the paper times it (LEQA = graph build +
/// estimate, QSPR = mapping) and end to end, with the shared front end --
/// generating or parsing the netlist and FT synthesis -- added to both.
#include <cstdio>

#include "harness.h"
#include "mathx/stats.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
    using namespace leqa;

    std::printf("=== Table 3: benchmark sizes and QSPR vs LEQA runtime ===\n\n");

    auto pipe = bench::make_suite_pipeline(fabric::PhysicalParams{}); // Table 1
    const auto calibration = bench::calibrate_on_smallest(pipe);
    pipe.apply_calibration(calibration);

    const auto rows = bench::run_suite(pipe);

    util::Table table({"Benchmark", "Qubit Count", "Operation Count", "QSPR (s)",
                       "LEQA (s)", "Speedup (X)", "QSPR+FE (s)", "LEQA+FE (s)",
                       "Speedup+FE (X)", "paper (X)"});
    for (const auto& row : rows) {
        table.add_row({row.spec.name, std::to_string(row.qubits),
                       std::to_string(row.ops), util::format_double(row.qspr_runtime_s, 3),
                       util::format_double(row.leqa_runtime_s, 3),
                       util::format_double(row.speedup, 3),
                       util::format_double(row.qspr_total_s, 3),
                       util::format_double(row.leqa_total_s, 3),
                       util::format_double(row.total_speedup, 3),
                       util::format_double(row.spec.paper_speedup, 4)});
    }
    std::printf("%s\n", table.to_string().c_str());
    std::printf("+FE: with the shared front end (netlist generation/parsing and FT "
                "synthesis) added to both tools.\n\n");

    if (rows.size() >= 4) {
        // Scaling exponents over the measured suite (paper: QSPR ~ N^1.5,
        // LEQA linear in N), with and without the front end.
        std::vector<double> ops;
        for (const auto& row : rows) ops.push_back(static_cast<double>(row.ops));
        const auto fit = [&](double bench::SuiteRow::*runtime) {
            std::vector<double> times;
            for (const auto& row : rows) times.push_back(std::max(row.*runtime, 1e-6));
            return mathx::power_law_fit(ops, times);
        };
        const auto report = [&](const char* label, double bench::SuiteRow::*runtime,
                                const char* paper) {
            const auto result = fit(runtime);
            std::printf("  %-8s runtime ~ N^%.2f  (R^2 = %.3f; paper: %s)\n", label,
                        result.exponent, result.r_squared, paper);
        };
        std::printf("runtime scaling over the suite (power-law fit):\n");
        report("QSPR", &bench::SuiteRow::qspr_runtime_s, "degree 1.5");
        report("LEQA", &bench::SuiteRow::leqa_runtime_s, "linear");
        report("QSPR+FE", &bench::SuiteRow::qspr_total_s, "n/a");
        report("LEQA+FE", &bench::SuiteRow::leqa_total_s, "n/a");

        const auto growth = [&](const char* label, double bench::SuiteRow::*speedup) {
            const double small_speedup = rows.front().*speedup;
            const double large_speedup = rows.back().*speedup;
            std::printf("%s growth: %.1fx (smallest) -> %.1fx (largest); %s\n", label,
                        small_speedup, large_speedup,
                        large_speedup > small_speedup ? "grows with op count (paper shape)"
                                                      : "DOES NOT GROW (shape mismatch)");
        };
        growth("speedup", &bench::SuiteRow::speedup);
        growth("speedup+FE", &bench::SuiteRow::total_speedup);
    }
    return 0;
}
