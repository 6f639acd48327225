/// \file fuzz_tape.h
/// \brief The differential leg of the netlist harnesses: one reader run
///        into a Circuit and into the QODG's tape must agree.
///
/// The netlist readers are templates over their output (parser/readers.h):
/// `parse_*` reads into a circuit::Circuit, and the pipeline streams a path
/// source into a `qodg::Qodg::Builder`.  Under fuzz both outputs must
/// accept or reject together, with the same message; on acceptance,
/// `Qodg(circuit)` and the streamed tape must agree on op count, qubit
/// count, per-kind gate counts and the circuit profile, bit for bit.
#pragma once

#include <bit>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "circuit/circuit.h"
#include "core/engine.h"
#include "fuzz_common.h"
#include "qodg/qodg.h"
#include "util/error.h"

namespace leqa_fuzz {

/// Read \p text with `parse(text)` (a Circuit) and `into_tape(text, tape)`,
/// abort on any disagreement, and return the circuit when both accepted.
template <class Parse, class IntoTape>
std::optional<leqa::circuit::Circuit> read_both(const std::string& text, Parse&& parse,
                                                IntoTape&& into_tape) {
    leqa::qodg::Qodg::Builder tape;
    std::optional<std::string> tape_error;
    try {
        into_tape(text, tape);
    } catch (const leqa::util::InputError& e) {
        tape_error = e.what();
    }

    std::optional<leqa::circuit::Circuit> circ;
    try {
        circ = parse(text);
    } catch (const leqa::util::InputError& e) {
        FUZZ_REQUIRE(tape_error.has_value(),
                     "the tape output accepted a text the circuit output rejected");
        FUZZ_REQUIRE(*tape_error == e.what(), "the two outputs rejected with different messages");
        return std::nullopt;
    }
    FUZZ_REQUIRE(!tape_error.has_value(),
                 ("the tape output rejected a text the circuit output accepted: " +
                  tape_error.value_or(""))
                     .c_str());

    const leqa::qodg::Qodg from_circuit(*circ);
    const leqa::qodg::Qodg from_tape(std::move(tape));
    FUZZ_REQUIRE(from_tape.num_ops() == from_circuit.num_ops(), "the outputs differ in op count");
    FUZZ_REQUIRE(from_tape.num_qubits() == from_circuit.num_qubits(),
                 "the outputs differ in qubit count");
    FUZZ_REQUIRE(from_tape.gate_counts() == from_circuit.gate_counts(),
                 "the outputs differ in gate counts");
    const auto tape_profile = leqa::core::CircuitProfile::build(from_tape);
    const auto circuit_profile = leqa::core::CircuitProfile::build(from_circuit);
    FUZZ_REQUIRE(tape_profile.num_qubits == circuit_profile.num_qubits &&
                     tape_profile.num_ops == circuit_profile.num_ops &&
                     tape_profile.gate_counts == circuit_profile.gate_counts &&
                     std::bit_cast<std::uint64_t>(tape_profile.zone_area_b) ==
                         std::bit_cast<std::uint64_t>(circuit_profile.zone_area_b) &&
                     std::bit_cast<std::uint64_t>(tape_profile.d_uncongest_v) ==
                         std::bit_cast<std::uint64_t>(circuit_profile.d_uncongest_v),
                 "the outputs differ in the circuit profile");
    return circ;
}

} // namespace leqa_fuzz
