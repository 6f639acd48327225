/// \file fuzz_qasm.cpp
/// \brief QASM-subset netlist parser: arbitrary text never crashes, its two
///        outputs agree, and accepted circuits survive the write/parse round
///        trip.
///
/// `parse_qasm` is the primary untrusted surface of the CLI tools (any file
/// path on the command line lands here).  Contract under fuzz: every input
/// either yields a circuit or throws util::InputError (ParseError for
/// malformed text, with a source location); the same reader streamed into
/// the QODG's tape, as the pipeline reads a path source, accepts or rejects
/// with it and agrees on the graph (fuzz_tape.h); a circuit that parsed must
/// serialize with `write_qasm` and re-parse to the same shape (qubit count,
/// gate count, per-gate kind) — names and comments are the only lossy part.
#include <cstdint>
#include <optional>
#include <string>

#include "circuit/circuit.h"
#include "fuzz_common.h"
#include "fuzz_tape.h"
#include "parser/qasm.h"
#include "parser/readers.h"
#include "util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    leqa_fuzz::install_abort_handler();
    const std::string text(reinterpret_cast<const char*>(data), size);

    const std::optional<leqa::circuit::Circuit> parsed = leqa_fuzz::read_both(
        text, [](const std::string& t) { return leqa::parser::parse_qasm(t, "<fuzz>"); },
        [](const std::string& t, leqa::qodg::Qodg::Builder& tape) {
            leqa::parser::parse_qasm_into(t, "<fuzz>", tape);
        });
    if (!parsed) return 0; // malformed netlist: the documented rejection path
    const leqa::circuit::Circuit& circ = *parsed;

    const std::string written = leqa::parser::write_qasm(circ);
    leqa::circuit::Circuit again(0);
    try {
        again = leqa::parser::parse_qasm(written, "<fuzz-roundtrip>");
    } catch (const leqa::util::InputError&) {
        FUZZ_REQUIRE(false, ("write_qasm emitted unparsable text:\n" + written).c_str());
    }
    FUZZ_REQUIRE(again.num_qubits() == circ.num_qubits(),
                 "qasm round trip changed the qubit count");
    FUZZ_REQUIRE(again.size() == circ.size(),
                 "qasm round trip changed the gate count");
    for (std::size_t i = 0; i < circ.size(); ++i) {
        FUZZ_REQUIRE(again.gate(i).kind == circ.gate(i).kind,
                     "qasm round trip changed a gate kind");
    }
    return 0;
}
