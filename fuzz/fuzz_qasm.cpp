/// \file fuzz_qasm.cpp
/// \brief QASM-subset netlist parser: arbitrary text never crashes, its two
///        outputs agree, it reads like the byte scanner it replaced, and
///        accepted circuits survive the write/parse round trip.
///
/// `parse_qasm` is the primary untrusted surface of the CLI tools (any file
/// path on the command line lands here).  Contract under fuzz: every input
/// either yields a circuit or throws util::InputError (ParseError for
/// malformed text, with a source location); the same reader streamed into
/// the QODG's tape, as the pipeline reads a path source, accepts or rejects
/// with it and agrees on the graph (fuzz_tape.h); the byte scanner and FNV
/// index the reader's chunk scanner replaced (tests/support/reference)
/// accept or reject with the same message and build the same tape; a
/// circuit that parsed must serialize with `write_qasm` and re-parse to the
/// same shape (qubit count, gate count, per-gate kind) — names and comments
/// are the only lossy part.
#include <array>
#include <cstdint>
#include <optional>
#include <string>

#include "circuit/circuit.h"
#include "fuzz_common.h"
#include "fuzz_tape.h"
#include "parser/qasm.h"
#include "parser/readers.h"
#include "qodg/qodg.h"
#include "reference/qasm_reference.h"
#include "util/error.h"

namespace {

/// How one reader took a text: the message it rejected with, or the
/// tape it built, as its to_dot() and gate counts.
struct Scan {
    bool accepted = false;
    std::string message;
    std::string dot;
    std::array<std::size_t, leqa::circuit::kGateKindCount> counts{};
};

template <class Read>
Scan scan_of(const std::string& text, Read&& read) {
    Scan scan;
    leqa::qodg::Qodg::Builder tape;
    try {
        read(text, tape);
    } catch (const leqa::util::InputError& e) {
        scan.message = e.what();
        return scan;
    }
    const leqa::qodg::Qodg graph(std::move(tape));
    scan.accepted = true;
    scan.dot = graph.to_dot();
    scan.counts = graph.gate_counts();
    return scan;
}

/// Abort unless the chunk scanner and the byte scanner agree on \p text.
void require_same_scan(const std::string& text) {
    const Scan scan = scan_of(text, [](const std::string& t, leqa::qodg::Qodg::Builder& tape) {
        leqa::parser::parse_qasm_into(t, "<fuzz>", tape);
    });
    const Scan reference =
        scan_of(text, [](const std::string& t, leqa::qodg::Qodg::Builder& tape) {
            leqa::parser::reference::parse_qasm_into(t, "<fuzz>", tape);
        });
    FUZZ_REQUIRE(scan.accepted == reference.accepted && scan.message == reference.message,
                 ("the chunk and byte scanners disagree: '" + scan.message + "' against '" +
                  reference.message + "'")
                     .c_str());
    FUZZ_REQUIRE(scan.counts == reference.counts && scan.dot == reference.dot,
                 "the chunk and byte scanners build different tapes");
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    leqa_fuzz::install_abort_handler();
    const std::string text(reinterpret_cast<const char*>(data), size);
    require_same_scan(text);

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
