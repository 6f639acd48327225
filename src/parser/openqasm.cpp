#include "parser/openqasm.h"

#include <sstream>

#include "parser/readers.h"

namespace leqa::parser {

bool looks_like_openqasm(std::string_view text) {
    lex::Lines lines(text);
    std::string_view raw;
    while (lines.next(raw)) {
        const std::string_view line = util::trim_view(raw.substr(0, raw.find("//")));
        if (line.empty()) continue;
        return util::iequals(line.substr(0, 8), "openqasm");
    }
    return false;
}

circuit::Circuit parse_openqasm(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    parse_openqasm_into(text, source_name, circ);
    return circ;
}

std::string write_openqasm(const circuit::Circuit& circ) {
    std::ostringstream out;
    out << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n";
    for (const auto& comment : circ.comments()) out << "// " << comment << '\n';
    // A qubit-less circuit (legal: a program with no qreg statements) must
    // round-trip; "qreg q[0];" would be rejected on re-parse.
    if (circ.num_qubits() > 0) out << "qreg q[" << circ.num_qubits() << "];\n";
    for (const circuit::Gate& gate : circ.gates()) {
        std::string mnemonic;
        switch (gate.kind) {
            case circuit::GateKind::Cnot: mnemonic = "cx"; break;
            case circuit::GateKind::Toffoli:
                LEQA_REQUIRE(gate.controls().size() == 2,
                             "write_openqasm: lower multi-controlled Toffolis first");
                mnemonic = "ccx";
                break;
            case circuit::GateKind::Fredkin:
                LEQA_REQUIRE(gate.controls().size() == 1,
                             "write_openqasm: lower multi-controlled Fredkins first");
                mnemonic = "cswap";
                break;
            default: mnemonic = circuit::gate_name(gate.kind); break;
        }
        out << mnemonic;
        bool first = true;
        for (const circuit::Qubit q : gate.qubits()) {
            out << (first ? " q[" : ", q[") << q << ']';
            first = false;
        }
        out << ";\n";
    }
    return out.str();
}

} // namespace leqa::parser
