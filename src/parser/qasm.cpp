#include "parser/qasm.h"

#include <sstream>

#include "parser/diagnostics.h"
#include "parser/lexer.h"
#include "util/strings.h"

namespace leqa::parser {

circuit::Circuit parse_qasm(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    lex::Lines lines(text);
    const auto error = [&](const std::string& message) {
        return ParseError({source_name, lines.number()}, message);
    };
    bool qubits_declared = false;
    std::vector<circuit::Qubit> operands; // reused by every gate line

    std::string_view raw;
    while (lines.next(raw)) {
        std::string_view rest = lex::strip_comment(raw, /*slashes=*/true);
        const std::string_view head = lex::next_token(rest);
        if (head.empty()) continue;

        if (head[0] == '.' || util::iequals(head, "qubit")) {
            // Every declaration takes exactly one argument.
            const std::string_view arg = lex::next_token(rest);
            const bool one_arg = !arg.empty() && lex::next_token(rest).empty();
            if (util::iequals(head, ".name")) {
                if (!one_arg) throw error(".name expects one argument");
                circ.set_name(std::string(arg));
            } else if (util::iequals(head, ".qubits")) {
                if (!one_arg) throw error(".qubits expects one argument");
                const auto count = util::parse_int(arg);
                if (!count || *count < 0) throw error(".qubits expects a non-negative integer");
                if (qubits_declared || circ.num_qubits() > 0) {
                    throw error("qubits already declared");
                }
                for (long long i = 0; i < *count; ++i) circ.add_qubit();
                qubits_declared = true;
            } else if (head[0] != '.') {
                if (!one_arg) throw error("qubit expects one name");
                if (!util::is_identifier(arg)) {
                    throw error("invalid qubit name '" + std::string(arg) + "'");
                }
                try {
                    circ.add_qubit(std::string(arg));
                } catch (const util::InputError& e) {
                    throw error(e.what());
                }
            } else {
                throw error("unknown directive '" + std::string(head) + "'");
            }
            continue;
        }

        const auto kind = circuit::find_gate_name(head);
        if (!kind) throw error("unknown gate or keyword '" + std::string(head) + "'");
        operands.clear();
        for (std::string_view token = lex::next_token(rest, /*commas=*/true); !token.empty();
             token = lex::next_token(rest, /*commas=*/true)) {
            const auto q = circ.find_qubit(token);
            if (!q) throw error("unknown qubit '" + std::string(token) + "'");
            operands.push_back(*q);
        }
        // For Toffoli all operands but the last are controls; for Fredkin
        // all but the last two.
        const circuit::GateInfo& info = circuit::gate_info(*kind);
        const auto n_targets = static_cast<std::size_t>(info.targets);
        if (operands.size() < n_targets) {
            throw error(std::string(info.name) + ": expected at least " +
                        std::to_string(n_targets) + " operand(s)");
        }
        const std::span<const circuit::Qubit> all(operands);
        try {
            circ.add_gate(circuit::Gate(*kind, all.first(all.size() - n_targets),
                                        all.last(n_targets)));
        } catch (const util::InputError& e) {
            throw error(e.what());
        }
    }
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
