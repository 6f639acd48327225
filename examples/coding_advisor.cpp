/// \file coding_advisor.cpp
/// \brief Compare alternative codings of the same function with LEQA.
///
/// The paper's motivation: a fast estimator lets quantum algorithm
/// designers "learn efficient ways of coding their quantum algorithms by
/// quickly comparing the latency of different software coding techniques."
/// This example compares three codings of the same multiply-accumulate
/// kernel over GF(2^16), each handed to the pipeline as an in-memory
/// circuit source:
///   A. trinomial-style reduction is impossible for n = 16, so: pentanomial
///      multiplier (the suite default);
///   B. the same multiplier with ancilla-sharing FT synthesis (fewer
///      qubits, more serialization);
///   C. a "wide" variant that spends 2x the qubits to halve the
///      multiplication depth (two half-multipliers + xor combine).
///
///   $ ./build/examples/coding_advisor
#include <cstdio>
#include <vector>

#include "benchgen/gf2_mult.h"
#include "pipeline/pipeline.h"

namespace {

using namespace leqa;

void report(const pipeline::EstimationResult& result, double baseline_s) {
    const double latency_s = result.estimate->latency_seconds();
    std::printf("%-38s %8zu %9zu %12.4E %9.2fx\n", result.label.c_str(),
                result.circuit.qubits, result.circuit.ft_ops, latency_s,
                baseline_s > 0 ? latency_s / baseline_s : 1.0);
}

} // namespace

int main() {
    benchgen::Gf2MultSpec spec;
    spec.n = 16;
    spec.form = benchgen::Gf2PolyForm::Pentanomial;
    const circuit::Circuit mult = benchgen::gf2_mult(spec);

    // Coding C: interleave two independent half-size multiplications that
    // a compiler could extract (a0*b0 and a1*b1 into separate accumulators)
    // -- twice the qubits, half the sequential depth.
    benchgen::Gf2MultSpec half;
    half.n = 8;
    half.form = benchgen::Gf2PolyForm::Auto;
    const circuit::Circuit half_mult = benchgen::gf2_mult(half);
    circuit::Circuit wide(48, "gf2^16mult-wide");
    {
        // Two disjoint 24-qubit half multipliers, gates interleaved so the
        // scheduler can overlap them.
        const auto shifted = [](std::span<const circuit::Qubit> qubits) {
            std::vector<circuit::Qubit> out(qubits.begin(), qubits.end());
            for (auto& q : out) q += 24;
            return out;
        };
        for (const circuit::Gate& low : half_mult.gates()) {
            wide.add_gate(low);
            wide.add_gate(
                circuit::Gate(low.kind, shifted(low.controls()), shifted(low.targets())));
        }
    }

    pipeline::Pipeline pipe; // Table 1 defaults, fresh-ancilla synthesis

    // Codings A and C go through the default session; coding B re-runs the
    // identical netlist under ancilla-sharing synthesis (a config change,
    // hence a distinct cache identity -- the cache key records the synth
    // toggles).
    pipeline::EstimationRequest coding_a(pipeline::CircuitSource::from_circuit(mult));
    coding_a.label = "A: pentanomial multiplier";
    pipeline::EstimationRequest coding_c(pipeline::CircuitSource::from_circuit(wide));
    coding_c.label = "C: two interleaved half-multipliers";

    const pipeline::EstimationResult result_a = pipe.run(coding_a);
    const pipeline::EstimationResult result_c = pipe.run(coding_c);

    synth::FtSynthOptions sharing;
    sharing.share_ancillas = true;
    pipeline::PipelineConfig shared_config;
    shared_config.synth = sharing;
    pipeline::Pipeline shared_pipe(shared_config);
    pipeline::EstimationRequest coding_b(pipeline::CircuitSource::from_circuit(mult));
    coding_b.label = "B: same, ancilla-sharing synthesis";
    const pipeline::EstimationResult result_b = shared_pipe.run(coding_b);

    const fabric::PhysicalParams& params = pipe.config().params;
    const double baseline = result_a.estimate->latency_seconds();

    std::printf("LEQA as a coding advisor (fabric %dx%d, Table 1 parameters)\n\n",
                params.width, params.height);
    std::printf("%-38s %8s %9s %12s %9s\n", "coding", "qubits", "FT ops", "D (s)",
                "vs A");
    report(result_a, baseline);
    report(result_b, baseline);
    report(result_c, baseline);
    std::printf("\nCoding C shows the classic width-vs-depth trade: more qubits,\n"
                "shorter critical path, lower estimated latency -- evaluated in\n"
                "milliseconds instead of a full map-and-route run per variant.\n");
    return 0;
}
