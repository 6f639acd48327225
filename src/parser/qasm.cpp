#include "parser/qasm.h"

#include <string>

#include "parser/readers.h"

namespace leqa::parser {

circuit::Circuit parse_qasm(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    parse_qasm_into(text, source_name, circ);
    return circ;
}

std::string write_qasm(const circuit::Circuit& circ) {
    std::string out;
    out.reserve(64 + 16 * circ.size()); // a mnemonic and two short names per gate
    for (const std::string& comment : circ.comments()) out.append("# ").append(comment) += '\n';
    if (!circ.name().empty()) out.append(".name ").append(circ.name()) += '\n';

    // If all qubit names are the default q0..qN-1 pattern, use the compact
    // .qubits directive; otherwise declare each name.
    bool default_names = true;
    for (circuit::Qubit q = 0; default_names && q < circ.num_qubits(); ++q) {
        default_names = circ.qubit_name(q) == "q" + std::to_string(q);
    }
    if (default_names) out.append(".qubits ").append(std::to_string(circ.num_qubits())) += '\n';
    for (circuit::Qubit q = 0; !default_names && q < circ.num_qubits(); ++q) {
        out.append("qubit ").append(circ.qubit_name(q)) += '\n';
    }

    for (const circuit::Gate& g : circ.gates()) {
        out.append(circuit::gate_info(g.kind).name);
        const char* separator = " ";
        for (const circuit::Qubit q : g.qubits()) {
            out.append(separator).append(circ.qubit_name(q));
            separator = ", ";
        }
        out += '\n';
    }
    return out;
}

} // namespace leqa::parser
