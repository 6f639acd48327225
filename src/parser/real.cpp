#include "parser/real.h"

#include <sstream>

#include "parser/diagnostics.h"
#include "parser/lexer.h"
#include "util/strings.h"

namespace leqa::parser {

circuit::Circuit parse_real(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    lex::Lines lines(text);
    const auto error = [&](const std::string& message) {
        return ParseError({source_name, lines.number()}, message);
    };
    bool in_body = false;
    bool saw_end = false;
    long long declared_vars = -1;
    std::vector<circuit::Qubit> operands; // reused by every gate line

    std::string_view raw;
    while (lines.next(raw)) {
        std::string_view rest = lex::strip_comment(raw, /*slashes=*/false);
        const std::string_view head = lex::next_token(rest);
        if (head.empty()) continue;

        if (head[0] == '.') {
            if (util::iequals(head, ".version")) {
                continue; // informational
            } else if (util::iequals(head, ".numvars")) {
                if (lex::count_tokens(rest) != 1) throw error(".numvars expects one argument");
                const auto n = util::parse_int(lex::next_token(rest));
                if (!n || *n < 0) throw error(".numvars expects a non-negative integer");
                declared_vars = *n;
            } else if (util::iequals(head, ".variables")) {
                if (declared_vars >= 0 &&
                    static_cast<long long>(lex::count_tokens(rest)) != declared_vars) {
                    throw error(".variables count does not match .numvars");
                }
                for (std::string_view name = lex::next_token(rest); !name.empty();
                     name = lex::next_token(rest)) {
                    if (!util::is_identifier(name)) {
                        throw error("invalid variable name '" + std::string(name) + "'");
                    }
                    try {
                        circ.add_qubit(std::string(name));
                    } catch (const util::InputError& e) {
                        throw error(e.what());
                    }
                }
            } else if (util::iequals(head, ".inputs") || util::iequals(head, ".outputs") ||
                       util::iequals(head, ".constants") || util::iequals(head, ".garbage") ||
                       util::iequals(head, ".inputbus") || util::iequals(head, ".outputbus")) {
                continue; // informational
            } else if (util::iequals(head, ".begin")) {
                if (circ.num_qubits() == 0 && declared_vars > 0) {
                    // .numvars without .variables: generate default names.
                    for (long long i = 0; i < declared_vars; ++i) {
                        circ.add_qubit("x" + std::to_string(i));
                    }
                }
                in_body = true;
            } else if (util::iequals(head, ".end")) {
                saw_end = true;
                break;
            } else {
                throw error("unknown directive '" + std::string(head) + "'");
            }
            continue;
        }

        if (!in_body) throw error("gate line before .begin");

        // Gate lines: t<N> or f<N> followed by N operands.
        const char family = head[0] == 'T' ? 't' : head[0] == 'F' ? 'f' : head[0];
        if (family != 't' && family != 'f') {
            throw error("unknown gate '" + std::string(head) + "' (expected tN or fN)");
        }
        const auto declared_arity = util::parse_int(head.substr(1));
        if (!declared_arity || *declared_arity < 1) {
            throw error("malformed gate name '" + std::string(head) + "'");
        }
        const auto arity = static_cast<std::size_t>(*declared_arity);
        const std::size_t given = lex::count_tokens(rest);
        if (given != arity) {
            throw error("gate '" + std::string(head) + "' expects " + std::to_string(arity) +
                        " operands, got " + std::to_string(given));
        }
        if (family == 'f' && arity < 2) throw error("fN gates need at least 2 operands");
        operands.clear();
        for (std::string_view name = lex::next_token(rest); !name.empty();
             name = lex::next_token(rest)) {
            const auto q = circ.find_qubit(name);
            if (!q) throw error("unknown variable '" + std::string(name) + "'");
            operands.push_back(*q);
        }

        // tN: the last operand is the target; fN: the last two are swapped.
        const std::span<const circuit::Qubit> all(operands);
        try {
            if (family == 't') {
                const std::span<const circuit::Qubit> controls = all.first(arity - 1);
                circ.add_gate(controls.empty() ? circuit::make_x(all.back())
                                               : circuit::make_mcx(controls, all.back()));
            } else {
                const std::span<const circuit::Qubit> controls = all.first(arity - 2);
                const circuit::Qubit a = all[arity - 2];
                const circuit::Qubit b = all[arity - 1];
                circ.add_gate(controls.empty() ? circuit::make_swap(a, b)
                                               : circuit::make_mcswap(controls, a, b));
            }
        } catch (const util::InputError& e) {
            throw error(e.what());
        }
    }

    if (in_body && !saw_end) throw error("missing .end");
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
