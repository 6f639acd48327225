/// \file scaling_study.cpp
/// \brief Reproduces the paper's §4.2 scaling narrative: QSPR runtime grows
///        superlinearly with operation count (degree ~1.5) while LEQA grows
///        linearly, and extrapolating to Shor-1024 (1.35e10 logical
///        operations) the detailed mapper would need ~years while LEQA
///        needs hours.
///
/// Method: sweep the gf2^Nmult family (a clean one-parameter size series),
/// fit both runtimes as power laws of the FT op count, and evaluate the
/// fits at the Shor-1024 logical op count exactly as the paper does.
#include <algorithm>
#include <limits>
#include <cstdio>

#include "benchgen/gf2_mult.h"
#include "core/engine.h"
#include "fabric/params.h"
#include "harness.h"
#include "iig/iig.h"
#include "mathx/stats.h"
#include "qodg/qodg.h"
#include "qspr/qspr.h"
#include "synth/ft_synth.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
    using namespace leqa;

    std::printf("=== Scaling study: QSPR vs LEQA runtime vs operation count ===\n\n");

    const bool fast = bench::bench_op_limit() > 0;
    std::vector<int> qspr_sizes = {8, 12, 16, 24, 32, 48, 64};
    if (!fast) qspr_sizes.push_back(96);
    // LEQA is cheap enough to measure far beyond the mapper's reach; fit
    // its exponent where the O(|V| + |E|) term dominates the fixed
    // O(T*A*logQ) overhead.
    std::vector<int> leqa_sizes = qspr_sizes;
    leqa_sizes.insert(leqa_sizes.end(), fast ? std::initializer_list<int>{128}
                                             : std::initializer_list<int>{128, 192, 256});

    fabric::PhysicalParams params; // Table 1
    const qspr::QsprMapper mapper(params);

    util::Table table({"gf2^Nmult", "FT ops", "QSPR (s)", "LEQA (s)", "Speedup (X)"});
    std::vector<double> ops, qspr_times;
    std::vector<double> leqa_ops, leqa_times, leqa_fit_ops, leqa_fit_times;
    for (const int n : leqa_sizes) {
        benchgen::Gf2MultSpec spec;
        spec.n = n;
        spec.form = benchgen::Gf2PolyForm::Auto;
        const auto ft = synth::ft_synthesize(benchgen::gf2_mult(spec)).circuit;

        // Best-of-N timing: single-shot wall clocks on millisecond-scale
        // work are too noisy for stable power-law fits.
        const auto best_of = [](int reps, const auto& body) {
            double best = std::numeric_limits<double>::infinity();
            for (int r = 0; r < reps; ++r) {
                util::Stopwatch clock;
                body();
                best = std::min(best, clock.seconds());
            }
            return best;
        };

        const bool run_qspr =
            std::find(qspr_sizes.begin(), qspr_sizes.end(), n) != qspr_sizes.end();
        double qspr_s = 0.0;
        if (run_qspr) {
            const int reps = ft.size() < 100000 ? 3 : 1;
            qspr_s = best_of(reps, [&] { (void)mapper.map(ft); });
            ops.push_back(static_cast<double>(ft.size()));
            qspr_times.push_back(std::max(qspr_s, 1e-6));
        }

        const double leqa_s = best_of(3, [&] {
            // The whole estimator: dependency graphs, profile, parameter stage.
            const qodg::Qodg graph(ft);
            const iig::Iig iig(ft);
            (void)core::EstimationEngine(params).estimate(
                core::CircuitProfile::build(graph, iig));
        });
        leqa_ops.push_back(static_cast<double>(ft.size()));
        leqa_times.push_back(std::max(leqa_s, 1e-6));
        if (ft.size() >= 50000) { // asymptotic region for the LEQA fit
            leqa_fit_ops.push_back(static_cast<double>(ft.size()));
            leqa_fit_times.push_back(std::max(leqa_s, 1e-6));
        }

        table.add_row({"n=" + std::to_string(n), std::to_string(ft.size()),
                       run_qspr ? util::format_double(qspr_s, 3) : "-",
                       util::format_double(leqa_s, 3),
                       run_qspr && leqa_s > 0 ? util::format_double(qspr_s / leqa_s, 3)
                                              : "-"});
    }
    std::printf("%s\n", table.to_string().c_str());

    const auto qspr_fit = mathx::power_law_fit(ops, qspr_times);
    const auto leqa_fit = leqa_fit_ops.size() >= 2
                              ? mathx::power_law_fit(leqa_fit_ops, leqa_fit_times)
                              : mathx::power_law_fit(leqa_ops, leqa_times);
    std::printf("power-law fits (runtime = c * N^alpha):\n");
    std::printf("  QSPR: alpha = %.3f (R^2 = %.3f)   paper claim: 1.5\n",
                qspr_fit.exponent, qspr_fit.r_squared);
    std::printf("  LEQA: alpha = %.3f (R^2 = %.3f)   paper claim: 1.0\n\n",
                leqa_fit.exponent, leqa_fit.r_squared);

    // The paper's §4.2 extrapolation: Shor-1024 has ~1.35e10 logical ops
    // (1.35e15 physical ops / ~1e5 physical ops per logical op with
    // two-level Steane).  The paper extrapolates QSPR ~ 2 years vs LEQA
    // ~ 16.5 hours.
    const double shor_ops = 1.35e10;
    const double qspr_seconds = mathx::power_law_eval(qspr_fit, shor_ops);
    const double leqa_seconds = mathx::power_law_eval(leqa_fit, shor_ops);
    std::printf("extrapolation to Shor-1024 (%.2e logical ops):\n", shor_ops);
    std::printf("  QSPR: %.3e s = %.1f days = %.2f years   (paper: ~2 years)\n",
                qspr_seconds, qspr_seconds / 86400.0, qspr_seconds / (365.0 * 86400.0));
    std::printf("  LEQA: %.3e s = %.1f hours               (paper: 16.5 hours)\n",
                leqa_seconds, leqa_seconds / 3600.0);
    std::printf("  ratio: %.0fx\n\n", qspr_seconds / leqa_seconds);
    const bool qspr_superlinear = qspr_fit.exponent > 1.1;
    const bool leqa_linear = leqa_fit.exponent < 1.15;
    std::printf("shape check: QSPR superlinear (alpha %.2f > 1.1): %s; "
                "LEQA ~linear (alpha %.2f < 1.15): %s -> %s\n",
                qspr_fit.exponent, qspr_superlinear ? "yes" : "NO",
                leqa_fit.exponent, leqa_linear ? "yes" : "NO",
                qspr_superlinear && leqa_linear
                    ? "the paper's divergence claim holds"
                    : "shape mismatch");
    return 0;
}
