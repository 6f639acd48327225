/// \file ft_synth.h
/// \brief The FT synthesis pipeline: lower a reversible netlist to the
///        fault-tolerant operation set {X, Y, Z, H, S, Sdg, T, Tdg, CNOT}.
///
/// Mirrors the paper's benchmark preparation (§4.1):
///   1. n-input Toffoli / Fredkin gates (n > 3) are decomposed to 3-input
///      gates via AND-chains over *fresh* ancilla qubits ("no ancillary
///      sharing is performed among the decomposed gates");
///   2. 3-input Fredkins are replaced by three 3-input Toffolis;
///   3. 3-input Toffolis are lowered to the 15-gate FT network of Figure 2;
///   4. SWAP becomes three CNOTs; NOT becomes X; FT gates pass through.
///
/// An optional ancilla-sharing mode (off by default, an extension beyond
/// the paper) reuses a pool of ancillas across gates, trading qubit count
/// for serialization through the shared qubits.
#pragma once

#include <string>

#include "circuit/circuit.h"

namespace leqa::synth {

struct FtSynthOptions {
    /// Reuse ancilla qubits across decomposed gates (extension; the paper's
    /// flow always allocates fresh ancillas).
    bool share_ancillas = false;
    /// Keep 3-input Toffolis instead of lowering to the 15-gate network
    /// (useful for inspecting the intermediate stage).
    bool keep_toffoli = false;
};

struct FtSynthStats {
    std::size_t input_gates = 0;
    std::size_t output_gates = 0;
    std::size_t input_qubits = 0;
    std::size_t ancillas_added = 0;
    std::size_t toffolis_lowered = 0;   ///< 3-input Toffolis expanded to FT
    std::size_t fredkins_lowered = 0;   ///< 3-input Fredkins expanded
    std::size_t chains_expanded = 0;    ///< multi-controlled gates expanded

    [[nodiscard]] std::string to_string() const;
};

struct FtSynthResult {
    circuit::Circuit circuit;
    FtSynthStats stats;
};

/// Run the full pipeline (`synthesize_into` of decompose.h) into a Circuit
/// named and commented like the input.  The result circuit satisfies
/// `result.circuit.is_ft()` (unless keep_toffoli is set) and preserves the
/// original qubits at indices [0, input.num_qubits()); ancillas follow.
[[nodiscard]] FtSynthResult ft_synthesize(const circuit::Circuit& input,
                                          const FtSynthOptions& options = {});

/// Closed-form FT op count for a circuit (matches ft_synthesize with fresh
/// ancillas); used by generators and tests without building the big netlist.
[[nodiscard]] std::size_t predicted_ft_ops(const circuit::Circuit& input);

/// Closed-form ancilla count for a circuit (fresh-ancilla mode).
[[nodiscard]] std::size_t predicted_ancillas(const circuit::Circuit& input);

} // namespace leqa::synth
