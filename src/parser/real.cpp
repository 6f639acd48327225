#include "parser/real.h"

#include <sstream>

#include "parser/readers.h"

namespace leqa::parser {

circuit::Circuit parse_real(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    parse_real_into(text, source_name, circ);
    return circ;
}

std::string write_real(const circuit::Circuit& circ) {
    LEQA_REQUIRE(circ.is_classical(),
                 "write_real: only classical reversible circuits (x/cnot/toffoli/"
                 "fredkin/swap) can be written as .real");
    std::ostringstream out;
    for (const auto& comment : circ.comments()) out << "# " << comment << '\n';
    out << ".version 1.0\n";
    out << ".numvars " << circ.num_qubits() << '\n';
    out << ".variables";
    for (circuit::Qubit q = 0; q < circ.num_qubits(); ++q) {
        out << ' ' << circ.qubit_name(q);
    }
    out << "\n.begin\n";
    for (const circuit::Gate& g : circ.gates()) {
        switch (g.kind) {
            case circuit::GateKind::X:
            case circuit::GateKind::Cnot:
            case circuit::GateKind::Toffoli:
                out << 't' << g.arity();
                for (const circuit::Qubit q : g.qubits()) out << ' ' << circ.qubit_name(q);
                out << '\n';
                break;
            case circuit::GateKind::Swap:
            case circuit::GateKind::Fredkin:
                out << 'f' << g.arity();
                for (const circuit::Qubit q : g.qubits()) out << ' ' << circ.qubit_name(q);
                out << '\n';
                break;
            default:
                throw util::InputError("write_real: gate not representable: " + g.to_string());
        }
    }
    out << ".end\n";
    return out.str();
}

} // namespace leqa::parser
