// Tests for FT synthesis: unitary-level correctness of every decomposition
// (via the statevector simulator), classical functional preservation, and
// the closed-form gate/ancilla count formulas.
#include <gtest/gtest.h>

#include "sim/classical.h"
#include "sim/statevector.h"
#include "synth/decompose.h"
#include "synth/ft_synth.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace ls = leqa::sim;
namespace lsyn = leqa::synth;

namespace {
constexpr double kTol = 1e-9;

/// Run an emitter into a fresh circuit; `emit` receives the gate sink.
template <class Emit>
lc::Circuit collect(std::size_t num_qubits, Emit emit) {
    lc::Circuit circ(num_qubits);
    emit([&](const lc::Gate& g) { circ.add_gate(g); });
    return circ;
}
} // namespace

// ------------------------------------------------------------- decompose --

TEST(Decompose, ToffoliFtNetworkIsExact) {
    // The 15-gate network must equal the Toffoli unitary exactly (not just
    // up to phase): compare all basis-state images amplitude-wise.
    lc::Circuit spec(3);
    spec.toffoli(0, 1, 2);
    const auto ft = collect(3, [](const auto& sink) {
        lsyn::emit_toffoli_ft(0, 1, 2, sink);
    });
    EXPECT_EQ(ft.size(), 15u);
    EXPECT_TRUE(ft.is_ft());
    EXPECT_NEAR(ls::max_unitary_difference(spec, ft), 0.0, kTol);
}

TEST(Decompose, ToffoliFtGateMix) {
    // 2 H + 4 T + 3 Tdg + 6 CNOT, matching the paper's Figure 2(a).
    const auto ft = collect(3, [](const auto& sink) {
        lsyn::emit_toffoli_ft(0, 1, 2, sink);
    });
    const auto counts = ft.counts();
    EXPECT_EQ(counts.of(lc::GateKind::H), 2u);
    EXPECT_EQ(counts.of(lc::GateKind::T), 4u);
    EXPECT_EQ(counts.of(lc::GateKind::Tdg), 3u);
    EXPECT_EQ(counts.of(lc::GateKind::Cnot), 6u);
}

TEST(Decompose, FredkinAsThreeToffoli) {
    lc::Circuit spec(3);
    spec.fredkin(0, 1, 2);
    const auto lowered = collect(3, [](const auto& sink) {
        lsyn::emit_fredkin_as_toffoli(0, 1, 2, sink);
    });
    EXPECT_EQ(lowered.size(), 3u);
    EXPECT_EQ(lowered.counts().of(lc::GateKind::Toffoli), 3u);
    EXPECT_NEAR(ls::max_unitary_difference(spec, lowered), 0.0, kTol);
}

TEST(Decompose, SwapAsThreeCnot) {
    lc::Circuit spec(2);
    spec.swap(0, 1);
    const auto lowered = collect(2, [](const auto& sink) {
        lsyn::emit_swap_as_cnot(0, 1, sink);
    });
    EXPECT_EQ(lowered.counts().of(lc::GateKind::Cnot), 3u);
    EXPECT_NEAR(ls::max_unitary_difference(spec, lowered), 0.0, kTol);
}

TEST(Decompose, McxChainMatchesSpecWithAncilla) {
    for (const std::size_t k : {3u, 4u, 5u}) {
        lc::Circuit spec(k + 1);
        std::vector<lc::Qubit> controls;
        for (std::size_t i = 0; i < k; ++i) controls.push_back(static_cast<lc::Qubit>(i));
        spec.add_gate(lc::make_mcx(controls, static_cast<lc::Qubit>(k)));

        lc::Circuit big(k + 1);
        lc::Qubit next_ancilla = static_cast<lc::Qubit>(k + 1);
        std::vector<lc::Gate> gates;
        lsyn::emit_mcx_chain(controls, static_cast<lc::Qubit>(k),
                             [&] {
                                 big.add_qubit();
                                 return next_ancilla++;
                             },
                             [&](const lc::Gate& g) { gates.push_back(g); });
        for (const auto& g : gates) big.add_gate(g);

        EXPECT_EQ(big.num_qubits(), spec.num_qubits() + (k - 1));
        EXPECT_EQ(big.counts().of(lc::GateKind::Toffoli), 2 * (k - 1));
        EXPECT_EQ(big.counts().of(lc::GateKind::Cnot), 1u);
        EXPECT_NEAR(ls::max_unitary_difference_with_ancilla(spec, big), 0.0, kTol)
            << "k=" << k;
    }
}

TEST(Decompose, McswapChainMatchesSpecWithAncilla) {
    for (const std::size_t k : {2u, 3u}) {
        const std::size_t n = k + 2;
        lc::Circuit spec(n);
        std::vector<lc::Qubit> controls;
        for (std::size_t i = 0; i < k; ++i) controls.push_back(static_cast<lc::Qubit>(i));
        spec.add_gate(lc::make_mcswap(controls, static_cast<lc::Qubit>(k),
                                      static_cast<lc::Qubit>(k + 1)));

        lc::Circuit big(n);
        lc::Qubit next_ancilla = static_cast<lc::Qubit>(n);
        std::vector<lc::Gate> gates;
        lsyn::emit_mcswap_chain(controls, static_cast<lc::Qubit>(k),
                                static_cast<lc::Qubit>(k + 1),
                                [&] {
                                    big.add_qubit();
                                    return next_ancilla++;
                                },
                                [&](const lc::Gate& g) { gates.push_back(g); });
        for (const auto& g : gates) big.add_gate(g);
        EXPECT_NEAR(ls::max_unitary_difference_with_ancilla(spec, big), 0.0, kTol)
            << "k=" << k;
    }
}

TEST(Decompose, CountFormulas) {
    EXPECT_EQ(lsyn::ft_ops_for_mcx(0), 1u);
    EXPECT_EQ(lsyn::ft_ops_for_mcx(1), 1u);
    EXPECT_EQ(lsyn::ft_ops_for_mcx(2), 15u);
    EXPECT_EQ(lsyn::ft_ops_for_mcx(3), 2u * 2u * 15u + 1u);
    EXPECT_EQ(lsyn::ft_ops_for_mcx(5), 2u * 4u * 15u + 1u);
    EXPECT_EQ(lsyn::ancillas_for_mcx(2), 0u);
    EXPECT_EQ(lsyn::ancillas_for_mcx(3), 2u);
    EXPECT_EQ(lsyn::ancillas_for_mcx(6), 5u);

    EXPECT_EQ(lsyn::ft_ops_for_mcswap(0), 3u);
    EXPECT_EQ(lsyn::ft_ops_for_mcswap(1), 45u);
    EXPECT_EQ(lsyn::ft_ops_for_mcswap(2), 30u + 45u);
    EXPECT_EQ(lsyn::ancillas_for_mcswap(1), 0u);
    EXPECT_EQ(lsyn::ancillas_for_mcswap(3), 2u);
}

// --------------------------------------------------------------- ft_synth --

TEST(FtSynth, PassThroughForFtGates) {
    lc::Circuit circ(2);
    circ.h(0).t(1).cnot(0, 1).sdg(0).z(1);
    const auto result = lsyn::ft_synthesize(circ);
    EXPECT_TRUE(circ.same_structure(result.circuit));
    EXPECT_EQ(result.stats.ancillas_added, 0u);
}

TEST(FtSynth, LowersToffoliAndPreservesCounts) {
    lc::Circuit circ(3);
    circ.toffoli(0, 1, 2);
    const auto result = lsyn::ft_synthesize(circ);
    EXPECT_TRUE(result.circuit.is_ft());
    EXPECT_EQ(result.circuit.size(), 15u);
    EXPECT_EQ(result.stats.toffolis_lowered, 1u);
    EXPECT_EQ(result.circuit.size(), lsyn::predicted_ft_ops(circ));
}

TEST(FtSynth, KeepToffoliOption) {
    lc::Circuit circ(3);
    circ.toffoli(0, 1, 2).fredkin(0, 1, 2);
    lsyn::FtSynthOptions options;
    options.keep_toffoli = true;
    const auto result = lsyn::ft_synthesize(circ, options);
    EXPECT_EQ(result.circuit.counts().of(lc::GateKind::Toffoli), 4u); // 1 + 3
    EXPECT_FALSE(result.circuit.is_ft());
}

TEST(FtSynth, UnitaryEquivalenceSmallMixedCircuit) {
    lc::Circuit circ(4);
    circ.h(0).toffoli(0, 1, 2).fredkin(2, 1, 3).swap(0, 3).t(2).cnot(1, 0);
    const auto result = lsyn::ft_synthesize(circ);
    EXPECT_TRUE(result.circuit.is_ft());
    EXPECT_NEAR(ls::max_unitary_difference(circ, result.circuit), 0.0, kTol);
}

TEST(FtSynth, MultiControlledFunctionalEquivalence) {
    // 4-controlled X: FT synthesis adds 3 ancillas; check classically over
    // the original qubits (statevector check runs in the dedicated
    // decompose test; here we validate the whole pipeline output + count
    // formulas on a wider gate).
    lc::Circuit circ(6);
    circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3, 4}, 5));
    const auto result = lsyn::ft_synthesize(circ);
    EXPECT_TRUE(result.circuit.is_ft());
    EXPECT_EQ(result.stats.ancillas_added, 4u);
    EXPECT_EQ(result.circuit.size(), lsyn::predicted_ft_ops(circ));
    EXPECT_EQ(result.circuit.num_qubits(), 6u + lsyn::predicted_ancillas(circ));

    // Classical check on the keep_toffoli stage (bit-exact, all 64 inputs).
    lsyn::FtSynthOptions keep;
    keep.keep_toffoli = true;
    const auto staged = lsyn::ft_synthesize(circ, keep);
    for (std::uint64_t input = 0; input < 64; ++input) {
        const auto expected = ls::run_classical(circ, input);
        const auto got = ls::run_classical(staged.circuit, input) & 0x3F;
        EXPECT_EQ(got, expected) << "input " << input;
        // Ancillas restored to zero.
        EXPECT_EQ(ls::run_classical(staged.circuit, input) >> 6, 0u);
    }
}

TEST(FtSynth, FreshAncillasPerGate) {
    lc::Circuit circ(5);
    circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 4));
    circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 4));
    const auto result = lsyn::ft_synthesize(circ);
    // Two 4-controlled gates, 3 ancillas each, no sharing (paper §4.1).
    EXPECT_EQ(result.stats.ancillas_added, 6u);
}

TEST(FtSynth, SharedAncillasReducesQubits) {
    lc::Circuit circ(5);
    circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 4));
    circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 4));
    lsyn::FtSynthOptions options;
    options.share_ancillas = true;
    const auto result = lsyn::ft_synthesize(circ, options);
    EXPECT_EQ(result.stats.ancillas_added, 3u);

    // Sharing must not change functionality (classical check, staged).
    options.keep_toffoli = true;
    const auto staged = lsyn::ft_synthesize(circ, options);
    for (std::uint64_t input = 0; input < 32; ++input) {
        const auto expected = ls::run_classical(circ, input);
        EXPECT_EQ(ls::run_classical(staged.circuit, input) & 0x1F, expected);
    }
}

TEST(FtSynth, PredictionMatchesSynthesisOnRandomCircuits) {
    leqa::util::Rng rng(1234);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 6 + rng.index(4);
        lc::Circuit circ(n);
        for (int g = 0; g < 25; ++g) {
            const std::size_t k = 1 + rng.index(4); // controls for mcx
            auto picks = rng.sample_without_replacement(n, k + 1);
            std::vector<lc::Qubit> controls(picks.begin(), picks.end() - 1);
            switch (rng.index(4)) {
                case 0:
                    circ.add_gate(lc::make_mcx(controls, static_cast<lc::Qubit>(picks.back())));
                    break;
                case 1:
                    circ.h(static_cast<lc::Qubit>(picks[0]));
                    break;
                case 2:
                    circ.swap(static_cast<lc::Qubit>(picks[0]),
                              static_cast<lc::Qubit>(picks[1]));
                    break;
                default:
                    if (picks.size() >= 3) {
                        std::vector<lc::Qubit> fc(picks.begin(), picks.end() - 2);
                        circ.add_gate(lc::make_mcswap(fc,
                                                      static_cast<lc::Qubit>(picks[picks.size() - 2]),
                                                      static_cast<lc::Qubit>(picks.back())));
                    } else {
                        circ.t(static_cast<lc::Qubit>(picks[0]));
                    }
                    break;
            }
        }
        const auto result = lsyn::ft_synthesize(circ);
        EXPECT_EQ(result.circuit.size(), lsyn::predicted_ft_ops(circ)) << "trial " << trial;
        EXPECT_EQ(result.stats.ancillas_added, lsyn::predicted_ancillas(circ))
            << "trial " << trial;
        EXPECT_TRUE(result.circuit.is_ft());
    }
}

TEST(FtSynth, StatsToStringMentionsKeyFields) {
    lc::Circuit circ(3);
    circ.toffoli(0, 1, 2);
    const auto result = lsyn::ft_synthesize(circ);
    const std::string text = result.stats.to_string();
    EXPECT_NE(text.find("gates 1 -> 15"), std::string::npos);
    EXPECT_NE(text.find("toffolis lowered: 1"), std::string::npos);
}
