#include "parser/openqasm.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

#include "parser/diagnostics.h"
#include "parser/lexer.h"
#include "util/strings.h"

namespace leqa::parser {

namespace {

/// The ';'-terminated statements of an OpenQASM text, "//" comments
/// removed, each with the line it starts on.  A statement is copied,
/// newlines as spaces, into one buffer the cursor reuses.
class Statements {
public:
    Statements(std::string_view text, const std::string& source_name)
        : text_(text), source_name_(source_name) {}

    /// Advance to the next non-empty statement (trimmed, valid until the
    /// next call); false at the end.  Throws ParseError for trailing text
    /// without a ';'.
    bool next(std::string_view& statement, std::size_t& line) {
        buffer_.clear();
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == ';') {
                if (buffer_.empty()) continue; // empty statement
                statement = util::trim_view(buffer_);
                line = start_line_;
                return true;
            }
            if (c == '/' && pos_ < text_.size() && text_[pos_] == '/') {
                pos_ = std::min(text_.find('\n', pos_), text_.size());
                continue;
            }
            if (c == '\n') ++line_;
            if (buffer_.empty()) {
                if (util::is_space(c)) continue;
                start_line_ = line_;
            }
            buffer_ += c == '\n' ? ' ' : c;
        }
        if (!buffer_.empty()) {
            throw ParseError({source_name_, start_line_},
                             "statement not terminated by ';': '" +
                                 std::string(util::trim_view(buffer_)) + "'");
        }
        return false;
    }

private:
    std::string_view text_;
    const std::string& source_name_;
    std::size_t pos_ = 0;
    std::size_t line_ = 1;
    std::size_t start_line_ = 1;
    std::string buffer_;
};

/// Operand: reg[index].
struct Operand {
    std::string_view reg;
    long long index = 0;
};

template <class Error>
Operand parse_operand(std::string_view token, const Error& error) {
    const auto open = token.find('[');
    const auto close = token.find(']');
    if (open == std::string_view::npos || close == std::string_view::npos || close < open ||
        close + 1 != token.size()) {
        throw error("expected operand of the form reg[i], got '" + std::string(token) + "'");
    }
    Operand operand;
    operand.reg = util::trim_view(token.substr(0, open));
    const auto index = util::parse_int(token.substr(open + 1, close - open - 1));
    if (operand.reg.empty() || !index || *index < 0) {
        throw error("malformed operand '" + std::string(token) + "'");
    }
    operand.index = *index;
    return operand;
}

bool is_any_of(std::string_view head, std::initializer_list<std::string_view> words) {
    for (const std::string_view word : words) {
        if (util::iequals(head, word)) return true;
    }
    return false;
}

} // namespace

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
    struct Register {
        circuit::Qubit base = 0;
        long long size = 0;
    };
    circuit::Circuit circ;
    std::unordered_map<std::string, Register, util::StringHash, std::equal_to<>> registers;
    std::vector<circuit::Qubit> qubits; // reused by every gate statement
    bool saw_header = false;

    Statements statements(text, source_name);
    std::string_view statement;
    std::size_t line = 0;
    const auto error = [&](const std::string& message) {
        return ParseError({source_name, line}, message);
    };
    while (statements.next(statement, line)) {
        std::string_view rest = statement;
        const std::string_view head = lex::next_token(rest);

        if (util::iequals(head, "openqasm")) {
            saw_header = true;
            continue;
        }
        if (!saw_header) throw error("missing OPENQASM 2.0 declaration");
        if (is_any_of(head, {"include", "creg", "barrier", "id"})) {
            continue; // accepted, irrelevant to the latency model
        }
        if (is_any_of(head, {"measure", "reset", "if", "gate", "u", "u1", "u2", "u3", "rx", "ry",
                             "rz", "cu1"})) {
            throw error("unsupported OpenQASM construct '" + std::string(head) +
                        "' (LEQA consumes FT Clifford+T netlists)");
        }
        if (util::iequals(head, "qreg")) {
            const std::string_view declaration = lex::next_token(rest);
            if (declaration.empty() || !lex::next_token(rest).empty()) {
                throw error("qreg expects one declaration");
            }
            const Operand decl = parse_operand(declaration, error);
            if (registers.find(decl.reg) != registers.end()) {
                throw error("duplicate qreg '" + std::string(decl.reg) + "'");
            }
            if (decl.index <= 0) throw error("qreg size must be positive");
            const auto base = static_cast<circuit::Qubit>(circ.num_qubits());
            const std::string reg(decl.reg);
            for (long long i = 0; i < decl.index; ++i) {
                circ.add_qubit(reg + "[" + std::to_string(i) + "]");
            }
            registers.emplace(reg, Register{base, decl.index});
            continue;
        }

        // Gate application: mnemonic operand-list (operands split on ',').
        const auto kind = circuit::find_gate_name(head);
        if (!kind) throw error("unknown gate '" + std::string(head) + "'");
        qubits.clear();
        for (std::string_view list = rest; !list.empty();) {
            const std::size_t comma = std::min(list.find(','), list.size());
            const std::string_view token = util::trim_view(list.substr(0, comma));
            list.remove_prefix(std::min(comma + 1, list.size()));
            if (token.empty()) continue;
            const Operand operand = parse_operand(token, error);
            const auto it = registers.find(operand.reg);
            if (it == registers.end()) {
                throw error("unknown qreg '" + std::string(operand.reg) + "'");
            }
            if (operand.index >= it->second.size) {
                throw error("index out of range for qreg '" + std::string(operand.reg) + "'");
            }
            qubits.push_back(it->second.base + static_cast<circuit::Qubit>(operand.index));
        }

        // ccx takes two controls; every other gate its minimum.
        const circuit::GateInfo& info = circuit::gate_info(*kind);
        const auto n_targets = static_cast<std::size_t>(info.targets);
        const std::size_t needed =
            *kind == circuit::GateKind::Toffoli
                ? 3
                : n_targets + static_cast<std::size_t>(std::max(info.min_controls, 0));
        if (qubits.size() != needed) {
            throw error("'" + util::to_lower(head) + "' expects " + std::to_string(needed) +
                        " operands, got " + std::to_string(qubits.size()));
        }
        const std::span<const circuit::Qubit> all(qubits);
        try {
            circ.add_gate(
                circuit::Gate(*kind, all.first(needed - n_targets), all.last(n_targets)));
        } catch (const util::InputError& e) {
            throw error(e.what());
        }
    }
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
