#include "benchgen/surrogate.h"

#include <algorithm>

#include "synth/decompose.h"
#include "synth/ft_synth.h"
#include "util/error.h"
#include "util/rng.h"

namespace leqa::benchgen {

namespace {

/// Plan: how many 4-control (x) and 3-control (y) Toffolis supply the
/// ancillas, and how the remaining op budget splits into 3-input Toffolis
/// and CNOTs.
struct SurrogatePlan {
    std::size_t four_control = 0;  // 3 ancillas, 91 FT ops each
    std::size_t three_control = 0; // 2 ancillas, 61 FT ops each
    std::size_t toffoli3 = 0;      // 15 FT ops each
    std::size_t cnots = 0;         // 1 FT op each
};

SurrogatePlan solve_plan(const SurrogateSpec& spec) {
    LEQA_REQUIRE(spec.target_qubits >= spec.base_qubits,
                 spec.name + ": target qubit count below base qubits");
    const std::size_t ancillas = spec.target_qubits - spec.base_qubits;

    SurrogatePlan plan;
    // 3x + 2y = ancillas with x maximal (prefer wider gates, like the
    // decomposed multi-controlled gates of the original benchmarks).
    switch (ancillas % 3) {
        case 0:
            plan.four_control = ancillas / 3;
            plan.three_control = 0;
            break;
        case 2:
            plan.four_control = ancillas / 3;
            plan.three_control = 1;
            break;
        default: // remainder 1: use two 3-control gates (needs ancillas >= 4)
            LEQA_REQUIRE(ancillas >= 4, spec.name + ": cannot reach ancilla target");
            plan.four_control = (ancillas - 4) / 3;
            plan.three_control = 2;
            break;
    }
    const std::size_t chain_ops = plan.four_control * synth::ft_ops_for_mcx(4) +
                                  plan.three_control * synth::ft_ops_for_mcx(3);
    LEQA_REQUIRE(spec.target_ft_ops >= chain_ops,
                 spec.name + ": op target too small for the ancilla plan");
    const std::size_t remaining = spec.target_ft_ops - chain_ops;
    plan.toffoli3 = remaining / 15;
    plan.cnots = remaining % 15;
    return plan;
}

} // namespace

circuit::Circuit surrogate_benchmark(const SurrogateSpec& spec) {
    LEQA_REQUIRE(spec.base_qubits >= 6,
                 spec.name + ": surrogate needs at least 6 base qubits");
    const SurrogatePlan plan = solve_plan(spec);

    util::Rng rng(spec.seed);
    circuit::Circuit circ(spec.base_qubits, spec.name);
    circ.add_comment("generator: surrogate (structure-matched substitute)");
    circ.add_comment("targets: qubits=" + std::to_string(spec.target_qubits) +
                     " ft_ops=" + std::to_string(spec.target_ft_ops) +
                     " seed=" + std::to_string(spec.seed));
    circ.reserve_gates(plan.four_control + plan.three_control + plan.toffoli3 + plan.cnots);

    const auto n = spec.base_qubits;
    // Deterministic interleave of the four gate classes, hwb-style: a
    // sliding window provides locality; occasional long-range partners
    // provide the global mixing of the hidden-weighted-bit permutation.
    std::size_t window = 0;
    const auto window_qubit = [&](std::size_t offset) {
        return static_cast<circuit::Qubit>((window + offset) % n);
    };
    const auto long_range_qubit = [&](circuit::Qubit avoid_window_span) {
        // Any qubit outside the current window span.
        const std::size_t span = avoid_window_span;
        const std::size_t pick = (window + span + 1 + rng.index(n - span - 1)) % n;
        return static_cast<circuit::Qubit>(pick);
    };

    std::size_t remaining_four = plan.four_control;
    std::size_t remaining_three = plan.three_control;
    std::size_t remaining_t3 = plan.toffoli3;
    std::size_t remaining_cnot = plan.cnots;

    while (remaining_four + remaining_three + remaining_t3 + remaining_cnot > 0) {
        // Rotate through gate classes proportionally so wide gates spread
        // across the circuit rather than clustering at the front.
        if (remaining_four > 0) {
            std::vector<circuit::Qubit> controls{window_qubit(0), window_qubit(1),
                                                 window_qubit(2), long_range_qubit(3)};
            circ.add_gate(circuit::make_mcx(controls, window_qubit(3)));
            --remaining_four;
        }
        if (remaining_three > 0) {
            std::vector<circuit::Qubit> controls{window_qubit(0), window_qubit(1),
                                                 long_range_qubit(2)};
            circ.add_gate(circuit::make_mcx(controls, window_qubit(2)));
            --remaining_three;
        }
        // Keep the local/global fill roughly uniform between wide gates.
        const std::size_t wide_left = remaining_four + remaining_three;
        const std::size_t t3_quota =
            wide_left > 0 ? std::max<std::size_t>(1, remaining_t3 / (wide_left + 1))
                          : remaining_t3;
        for (std::size_t i = 0; i < t3_quota && remaining_t3 > 0; ++i) {
            if (rng.chance(0.7)) {
                circ.toffoli(window_qubit(0), window_qubit(1), window_qubit(2));
            } else {
                circ.toffoli(window_qubit(0), long_range_qubit(1), window_qubit(1));
            }
            --remaining_t3;
            window = (window + 1) % n;
        }
        const std::size_t cnot_quota =
            wide_left > 0 ? std::max<std::size_t>(1, remaining_cnot / (wide_left + 1))
                          : remaining_cnot;
        for (std::size_t i = 0; i < cnot_quota && remaining_cnot > 0; ++i) {
            if (rng.chance(0.5)) {
                circ.cnot(window_qubit(0), window_qubit(1));
            } else {
                circ.cnot(window_qubit(0), long_range_qubit(1));
            }
            --remaining_cnot;
            window = (window + 3) % n;
        }
        window = (window + 1) % n;
    }

    LEQA_CHECK(synth::predicted_ft_ops(circ) == spec.target_ft_ops,
               spec.name + ": surrogate op plan mismatch");
    LEQA_CHECK(spec.base_qubits + synth::predicted_ancillas(circ) == spec.target_qubits,
               spec.name + ": surrogate qubit plan mismatch");
    return circ;
}

} // namespace leqa::benchgen
