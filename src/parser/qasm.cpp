#include "parser/qasm.h"

#include <sstream>

#include "parser/readers.h"

namespace leqa::parser {

circuit::Circuit parse_qasm(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    parse_qasm_into(text, source_name, circ);
    return circ;
}

std::string write_qasm(const circuit::Circuit& circ) {
    std::ostringstream out;
    for (const auto& comment : circ.comments()) out << "# " << comment << '\n';
    if (!circ.name().empty()) out << ".name " << circ.name() << '\n';

    // If all qubit names are the default q0..qN-1 pattern, use the compact
    // .qubits directive; otherwise declare each name.
    bool default_names = true;
    for (circuit::Qubit q = 0; q < circ.num_qubits(); ++q) {
        if (circ.qubit_name(q) != "q" + std::to_string(q)) {
            default_names = false;
            break;
        }
    }
    if (default_names) {
        out << ".qubits " << circ.num_qubits() << '\n';
    } else {
        for (circuit::Qubit q = 0; q < circ.num_qubits(); ++q) {
            out << "qubit " << circ.qubit_name(q) << '\n';
        }
    }

    for (const circuit::Gate& g : circ.gates()) {
        out << circuit::gate_name(g.kind);
        bool first = true;
        for (const circuit::Qubit q : g.qubits()) {
            out << (first ? " " : ", ") << circ.qubit_name(q);
            first = false;
        }
        out << '\n';
    }
    return out.str();
}

} // namespace leqa::parser
