/// \file fuzz_openqasm.cpp
/// \brief OpenQASM 2.0 subset parser: arbitrary text never crashes, the
///        dialect sniffer agrees with the parser, its two outputs agree, and
///        accepted circuits survive the write/parse round trip.
///
/// Same shape as fuzz_qasm but for the interchange dialect, including the
/// circuit-vs-tape differential leg of fuzz_tape.h.  The round trip
/// is total on *parsed* circuits: the subset `parse_openqasm` accepts (1q
/// gates, cx/ccx/cswap) is exactly the subset `write_openqasm` can emit, so
/// a parsed circuit failing to serialize is a harness-reportable bug.
#include <cstdint>
#include <optional>
#include <string>

#include "circuit/circuit.h"
#include "fuzz_common.h"
#include "fuzz_tape.h"
#include "parser/openqasm.h"
#include "parser/readers.h"
#include "util/error.h"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
    leqa_fuzz::install_abort_handler();
    const std::string text(reinterpret_cast<const char*>(data), size);

    (void)leqa::parser::looks_like_openqasm(text); // must never throw

    const std::optional<leqa::circuit::Circuit> parsed = leqa_fuzz::read_both(
        text, [](const std::string& t) { return leqa::parser::parse_openqasm(t, "<fuzz>"); },
        [](const std::string& t, leqa::qodg::Qodg::Builder& tape) {
            leqa::parser::parse_openqasm_into(t, "<fuzz>", tape);
        });
    if (!parsed) return 0;
    const leqa::circuit::Circuit& circ = *parsed;

    const std::string written = leqa::parser::write_openqasm(circ);
    FUZZ_REQUIRE(leqa::parser::looks_like_openqasm(written),
                 "write_openqasm output fails the dialect sniffer");
    leqa::circuit::Circuit again(0);
    try {
        again = leqa::parser::parse_openqasm(written, "<fuzz-roundtrip>");
    } catch (const leqa::util::InputError&) {
        FUZZ_REQUIRE(false,
                     ("write_openqasm emitted unparsable text:\n" + written).c_str());
    }
    FUZZ_REQUIRE(again.num_qubits() == circ.num_qubits(),
                 "openqasm round trip changed the qubit count");
    FUZZ_REQUIRE(again.size() == circ.size(),
                 "openqasm round trip changed the gate count");
    for (std::size_t i = 0; i < circ.size(); ++i) {
        FUZZ_REQUIRE(again.gate(i).kind == circ.gate(i).kind,
                     "openqasm round trip changed a gate kind");
    }
    return 0;
}
