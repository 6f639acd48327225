/// \file readers.h
/// \brief The three netlist readers, each written once over its output.
///
/// `parse_qasm_into`, `parse_real_into` and `parse_openqasm_into` read a
/// netlist text into any output with `add_qubit(std::string_view)` and
/// `add_gate(const circuit::Gate&)`; the QASM subset's `.name` also goes to
/// `set_name(std::string)` when the output has one.  That is the interface
/// `synth::synthesize_into` writes to.  An output need not keep names: the
/// QASM-subset and .real readers resolve operand names through their own
/// circuit::QubitIndex, and the OpenQASM reader through its register map.
/// `parse_qasm`, `parse_real`, `parse_openqasm` and `load_netlist` run them
/// into a circuit::Circuit; the pipeline runs `parse_netlist_into` straight
/// into the QODG's tape.  Both outputs validate each gate with
/// `Gate::validate_against`, so they accept the same texts and reject the
/// others with the same message and line.
///
/// Only the parser's sources, the pipeline, and the tests and benches that
/// time or compare the readers include this header, as synth/decompose.h
/// is included; everyone else calls the functions above.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "circuit/gate.h"
#include "circuit/qubit_index.h"
#include "parser/diagnostics.h"
#include "parser/lexer.h"
#include "parser/openqasm.h"
#include "util/strings.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace leqa::parser {

/// The most qubits a netlist may declare (hwb200ps, the largest suite
/// circuit, has 3,145 after synthesis).
inline constexpr std::size_t kMaxDeclaredQubits = std::size_t{1} << 20;

namespace detail {

/// Throws, naming \p directive, if \p count more qubits pass the bound.
template <class Error>
void check_declared(std::size_t declared, long long count, const char* directive,
                    const Error& error) {
    if (static_cast<unsigned long long>(count) <= kMaxDeclaredQubits - declared) return;
    throw error(std::string(directive) + " would declare more than " +
                std::to_string(kMaxDeclaredQubits) + " qubits");
}

/// Bit i set where byte lane i of the 16-lane comparison \p lanes is true.
/// The scanner's only per-ISA code: SSE2, the x86-64 baseline, packs the
/// lanes in one instruction.
template <class Lanes>
std::uint32_t lane_bits16(Lanes lanes) {
    static_assert(sizeof(Lanes) == 16);
#if defined(__SSE2__)
    return static_cast<std::uint32_t>(_mm_movemask_epi8(std::bit_cast<__m128i>(lanes)));
#else
    const auto bytes = std::bit_cast<std::array<std::uint8_t, 16>>(lanes);
    std::uint32_t bits = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) bits |= std::uint32_t{bytes[i] & 1u} << i;
    return bits;
#endif
}

/// The bytes of 16 bytes of text that the QASM-subset scanner stops at:
/// bit i of each mask is byte i.
struct ChunkClasses {
    std::uint32_t space;   ///< util::is_space, '\n' included
    std::uint32_t newline; ///< '\n'
    std::uint32_t comma;
    std::uint32_t hash;    ///< '#'
    std::uint32_t slash;   ///< '/'
};

/// Classify the 16 bytes at \p p, one byte compare per class.  GCC and
/// Clang lower the vector type to SSE2 without -march, and to plain
/// byte loops elsewhere.
inline ChunkClasses classify16(const char* p) {
    using Bytes = std::uint8_t __attribute__((vector_size(16)));
    Bytes bytes;
    std::memcpy(&bytes, p, sizeof bytes);
    // util::is_space: ' ', or '\t' to '\r' (9 to 13).
    const Bytes from_tab = bytes - 9;
    return {lane_bits16((bytes == ' ') | (from_tab < 5)), lane_bits16(bytes == '\n'),
            lane_bits16(bytes == ','), lane_bits16(bytes == '#'), lane_bits16(bytes == '/')};
}

/// Bits set in \p bits, without the library call std::popcount makes on
/// the x86-64 baseline, which has no POPCNT.
constexpr std::size_t count_bits(std::uint64_t bits) {
    bits -= (bits >> 1) & 0x5555555555555555ULL;
    bits = (bits & 0x3333333333333333ULL) + ((bits >> 2) & 0x3333333333333333ULL);
    bits = (bits + (bits >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return static_cast<std::size_t>((bits * 0x0101010101010101ULL) >> 56);
}

/// What the QASM-subset scanner needs of 16 bytes of text.
struct LineChunk {
    std::uint32_t space;   ///< util::is_space, '\n' included
    std::uint32_t comma;   ///< ','
    std::uint32_t newline; ///< '\n'
    std::uint32_t stop;    ///< what ends a line's tokens: '\n', '#', a '/' starting "//"
};

/// The LineChunk of the 16 bytes at \p p; byte 16 must be readable too.
inline LineChunk line_chunk(const char* p) {
    const ChunkClasses c = classify16(p);
    // A '/' starts a comment when the next byte is one too.
    const std::uint32_t next_slash = c.slash >> 1 | std::uint32_t{p[16] == '/'} << 15;
    return {c.space, c.comma, c.newline, c.newline | c.hash | (c.slash & next_slash)};
}

/// line_chunk of the text's last \p left <= 16 bytes at \p p: they are
/// copied into a buffer padded with '\n', so no load reads past the text
/// and every scan stops at its end.
LineChunk tail_chunk(const char* p, std::size_t left);

/// The chunk at \p p of a text that ends at \p end.
inline LineChunk chunk_at(const char* p, const char* end) {
    const auto left = static_cast<std::size_t>(end - p);
    return left > 16 ? line_chunk(p) : tail_chunk(p, left);
}

/// The token or operand that starts at or after \p p, for a line whose
/// stop is not in its first chunk; empty at the line end or a comment.
/// Scans on, 16 bytes per step, and splits on ',' too when \p operand.
std::string_view cut_long(const char* p, const char* end, bool operand);

/// Where the line holding \p p ends: after its '\n', or at \p end.
const char* after_newline(const char* p, const char* end);

/// The lines of a QASM-subset text, scanned 16 bytes per step.  A line
/// is classified from its first byte into bit masks (line_chunk), and
/// when its stop lies in those 16 bytes (every line of an FT netlist), or
/// in the next 16, its tokens are bit scans of them: the operands are read
/// off two masks, the bits where a run of operand bytes starts and where
/// one ends, and the next line starts after the first '\n'.  A longer line
/// is cut by cut_long.  A comment ('#' or "//") or the line end stops the tokens.
/// Lines split on '\n' like lex::Lines, and whitespace is util::is_space,
/// so CRLF endings and tabs are plain whitespace.
class QasmLines {
public:
    explicit QasmLines(std::string_view text)
        : line_(text.data()), end_(text.data() + text.size()), next_(line_), pos_(line_) {}

    /// Move to the start of the next line, skipping what is left of the
    /// current one; false at the end of the text.
    bool next() {
        const char* const start = next_ != nullptr ? next_ : after_newline(pos_, end_);
        if (start == end_) return false;
        line_ = pos_ = start;
        const auto left = static_cast<std::size_t>(end_ - start);
        LineChunk c = left > 16 ? line_chunk(start) : tail_chunk(start, left);
        if (c.stop == 0) {
            // The line goes on: its next 16 bytes too, in the masks' top half.
            const LineChunk more = chunk_at(start + 16, end_);
            c = {c.space | more.space << 16, c.comma | more.comma << 16,
                 c.newline | more.newline << 16, more.stop << 16};
        }
        space_ = c.space;
        stop_ = c.stop;
        // The padding of a tail chunk is '\n' too.
        const auto newline = static_cast<std::size_t>(std::countr_zero(c.newline));
        next_ = newline < 32 ? (newline < left ? start + newline + 1 : end_) : nullptr;
        // Bit i of `word` is byte i of an operand, up to the stop.
        const std::uint32_t word = ~(c.space | c.comma) & ((stop_ & -stop_) - 1);
        starts_ = word & ~(word << 1);
        ends_ = ~word & (word << 1);
        ++number_;
        return true;
    }

    /// The next token of the line, split on whitespace only (a ',' is part
    /// of it); empty at the line end or a comment.
    std::string_view token() {
        if (stop_ == 0) return cut(false);
        const auto offset = static_cast<unsigned>(pos_ - line_);
        const std::uint32_t blank = space_ & ~stop_;
        const unsigned begin = offset + std::countr_zero(~blank >> offset);
        const unsigned end = begin + std::countr_zero((space_ | stop_) >> begin);
        pos_ = line_ + end;
        // The operands are the runs that start past the token.
        starts_ &= ~0u << end;
        ends_ &= ~1u << end;
        return {line_ + begin, end - begin};
    }

    /// The next operand of the line, split on whitespace or ','; empty at
    /// the line end or a comment.
    std::string_view operand() {
        if (stop_ == 0) return cut(true);
        if (starts_ == 0) {
            pos_ = line_ + std::countr_zero(stop_);
            return {pos_, 0};
        }
        const int begin = std::countr_zero(starts_);
        const int end = std::countr_zero(ends_);
        starts_ &= starts_ - 1;
        ends_ &= ends_ - 1;
        pos_ = line_ + end;
        return {line_ + begin, static_cast<std::size_t>(end - begin)};
    }

    /// 1-based number of the current line (0 before the first).
    [[nodiscard]] std::size_t number() const { return number_; }

private:
    std::string_view cut(bool operand) {
        const std::string_view token = cut_long(pos_, end_, operand);
        pos_ = token.data() + token.size();
        return token;
    }

    const char* line_;   ///< the current line's first byte
    const char* end_;
    const char* next_;   ///< the next line's first byte; null when unknown
    const char* pos_;    ///< where the scan of the line stands
    std::uint32_t space_ = 0;  ///< line_chunk masks of the line's first 16 or 32
    std::uint32_t stop_ = 0;   ///< bytes, with stop_ 0 when the line goes on past them
    std::uint32_t starts_ = 0; ///< the operand runs past pos_: where each starts
    std::uint32_t ends_ = 0;   ///< and where each ends
    std::size_t number_ = 0;
};

/// The lower-case FT mnemonics, resolved without find_gate_name's scan of
/// the kind table and its aliases (which still gets every other spelling).
inline std::optional<circuit::GateKind> ft_mnemonic(std::string_view head) {
    using circuit::GateKind;
    switch (head.size()) {
        case 1:
            switch (head[0]) {
                case 'x': return GateKind::X;
                case 'y': return GateKind::Y;
                case 'z': return GateKind::Z;
                case 'h': return GateKind::H;
                case 's': return GateKind::S;
                case 't': return GateKind::T;
                default: return std::nullopt;
            }
        case 3:
            if (head[1] != 'd' || head[2] != 'g') return std::nullopt;
            if (head[0] == 't') return GateKind::Tdg;
            if (head[0] == 's') return GateKind::Sdg;
            return std::nullopt;
        case 4:
            if (head == "cnot") return GateKind::Cnot;
            return std::nullopt;
        default:
            return std::nullopt;
    }
}

/// Add qubit \p name to \p names and \p out.  The output may keep no
/// names, so a taken name fails here, with Circuit::add_qubit's message.
template <class Out, class Error>
void add_qubit(circuit::QubitIndex& names, Out& out, std::string_view name, const Error& error) {
    if (!names.add(name)) {
        throw error("requirement failed: duplicate qubit name: " + excerpt(name));
    }
    out.add_qubit(name);
}

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
                                 excerpt(util::trim_view(buffer_)) + "'");
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

/// OpenQASM operand: reg[index].
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
        throw error("expected operand of the form reg[i], got '" + excerpt(token) + "'");
    }
    Operand operand;
    operand.reg = util::trim_view(token.substr(0, open));
    const auto index = util::parse_int(token.substr(open + 1, close - open - 1));
    if (operand.reg.empty() || !index || *index < 0) {
        throw error("malformed operand '" + excerpt(token) + "'");
    }
    operand.index = *index;
    return operand;
}

inline bool is_any_of(std::string_view head, std::initializer_list<std::string_view> words) {
    for (const std::string_view word : words) {
        if (util::iequals(head, word)) return true;
    }
    return false;
}

} // namespace detail

/// The QASM-subset reader of qasm.h.  Each line is scanned once: the head
/// token, then the operands, split on whitespace or ','.
template <class Out>
void parse_qasm_into(std::string_view text, const std::string& source_name, Out& out) {
    detail::QasmLines lines(text);
    std::size_t line = 0; // kept apart, so `lines` need not live in memory
    const auto error = [&](const std::string& message) {
        return ParseError({source_name, line}, message);
    };
    circuit::QubitIndex names;
    bool qubits_declared = false;
    std::vector<circuit::Qubit> operands; // reused by every gate line

    while (lines.next()) {
        line = lines.number();
        const std::string_view head = lines.token();
        if (head.empty()) continue;
        std::optional<circuit::GateKind> kind = detail::ft_mnemonic(head);

        if (!kind && (head[0] == '.' || util::iequals(head, "qubit"))) {
            // Every declaration takes exactly one argument.
            const std::string_view arg = lines.token();
            const bool one_arg = !arg.empty() && lines.token().empty();
            if (util::iequals(head, ".name")) {
                if (!one_arg) throw error(".name expects one argument");
                if constexpr (requires { out.set_name(std::string()); }) {
                    out.set_name(std::string(arg));
                }
            } else if (util::iequals(head, ".qubits")) {
                if (!one_arg) throw error(".qubits expects one argument");
                const auto count = util::parse_int(arg);
                if (!count || *count < 0) throw error(".qubits expects a non-negative integer");
                if (qubits_declared || names.size() > 0) throw error("qubits already declared");
                detail::check_declared(0, *count, ".qubits", error);
                for (long long i = 0; i < *count; ++i) {
                    detail::add_qubit(names, out, "q" + std::to_string(i), error);
                }
                qubits_declared = true;
            } else if (head[0] != '.') {
                if (!one_arg) throw error("qubit expects one name");
                if (!util::is_identifier(arg)) {
                    throw error("invalid qubit name '" + excerpt(arg) + "'");
                }
                detail::check_declared(names.size(), 1, "qubit", error);
                detail::add_qubit(names, out, arg, error);
            } else {
                throw error("unknown directive '" + excerpt(head) + "'");
            }
            continue;
        }

        if (!kind) kind = circuit::find_gate_name(head);
        if (!kind) throw error("unknown gate or keyword '" + excerpt(head) + "'");
        operands.clear();
        for (;;) {
            const std::string_view token = lines.operand();
            if (token.empty()) break;
            const std::optional<circuit::Qubit> q = names.find(token);
            if (!q) throw error("unknown qubit '" + excerpt(token) + "'");
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
            out.add_gate(circuit::Gate(*kind, all.first(all.size() - n_targets),
                                       all.last(n_targets)));
        } catch (const util::InputError& e) {
            throw error(e.what());
        }
    }
}

/// The RevLib .real reader of real.h.
template <class Out>
void parse_real_into(std::string_view text, const std::string& source_name, Out& out) {
    lex::Lines lines(text);
    const auto error = [&](const std::string& message) {
        return ParseError({source_name, lines.number()}, message);
    };
    circuit::QubitIndex names;
    bool in_body = false;
    bool saw_end = false;
    long long declared_vars = -1;
    std::vector<circuit::Qubit> operands; // reused by every gate line

    std::string_view raw;
    while (lines.next(raw)) {
        std::string_view rest = lex::strip_comment(raw);
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
                const auto count = static_cast<long long>(lex::count_tokens(rest));
                if (declared_vars >= 0 && count != declared_vars) {
                    throw error(".variables count does not match .numvars");
                }
                detail::check_declared(names.size(), count, ".variables", error);
                for (std::string_view name = lex::next_token(rest); !name.empty();
                     name = lex::next_token(rest)) {
                    if (!util::is_identifier(name)) {
                        throw error("invalid variable name '" + excerpt(name) + "'");
                    }
                    detail::add_qubit(names, out, name, error);
                }
            } else if (util::iequals(head, ".inputs") || util::iequals(head, ".outputs") ||
                       util::iequals(head, ".constants") || util::iequals(head, ".garbage") ||
                       util::iequals(head, ".inputbus") || util::iequals(head, ".outputbus")) {
                continue; // informational
            } else if (util::iequals(head, ".begin")) {
                if (names.size() == 0 && declared_vars > 0) {
                    // .numvars without .variables: generate default names.
                    detail::check_declared(0, declared_vars, ".numvars", error);
                    for (long long i = 0; i < declared_vars; ++i) {
                        detail::add_qubit(names, out, "x" + std::to_string(i), error);
                    }
                }
                in_body = true;
            } else if (util::iequals(head, ".end")) {
                saw_end = true;
                break;
            } else {
                throw error("unknown directive '" + excerpt(head) + "'");
            }
            continue;
        }

        if (!in_body) throw error("gate line before .begin");

        // Gate lines: t<N> or f<N> followed by N operands.
        const char family = head[0] == 'T' ? 't' : head[0] == 'F' ? 'f' : head[0];
        if (family != 't' && family != 'f') {
            throw error("unknown gate '" + excerpt(head) + "' (expected tN or fN)");
        }
        const auto declared_arity = util::parse_int(head.substr(1));
        if (!declared_arity || *declared_arity < 1) {
            throw error("malformed gate name '" + excerpt(head) + "'");
        }
        const auto arity = static_cast<std::size_t>(*declared_arity);
        const std::size_t given = lex::count_tokens(rest);
        if (given != arity) {
            throw error("gate '" + excerpt(head) + "' expects " + std::to_string(arity) +
                        " operands, got " + std::to_string(given));
        }
        if (family == 'f' && arity < 2) throw error("fN gates need at least 2 operands");
        operands.clear();
        for (std::string_view name = lex::next_token(rest); !name.empty();
             name = lex::next_token(rest)) {
            const std::optional<circuit::Qubit> q = names.find(name);
            if (!q) throw error("unknown variable '" + excerpt(name) + "'");
            operands.push_back(*q);
        }

        // tN: the last operand is the target; fN: the last two are swapped.
        const std::span<const circuit::Qubit> all(operands);
        try {
            if (family == 't') {
                const std::span<const circuit::Qubit> controls = all.first(arity - 1);
                out.add_gate(controls.empty() ? circuit::make_x(all.back())
                                              : circuit::make_mcx(controls, all.back()));
            } else {
                const std::span<const circuit::Qubit> controls = all.first(arity - 2);
                const circuit::Qubit a = all[arity - 2];
                const circuit::Qubit b = all[arity - 1];
                out.add_gate(controls.empty() ? circuit::make_swap(a, b)
                                              : circuit::make_mcswap(controls, a, b));
            }
        } catch (const util::InputError& e) {
            throw error(e.what());
        }
    }

    if (in_body && !saw_end) throw error("missing .end");
}

/// The OpenQASM 2.0 subset reader of openqasm.h.
template <class Out>
void parse_openqasm_into(std::string_view text, const std::string& source_name, Out& out) {
    struct Register {
        circuit::Qubit base = 0;
        long long size = 0;
    };
    std::unordered_map<std::string, Register, util::StringHash, std::equal_to<>> registers;
    circuit::Qubit num_qubits = 0;
    std::vector<circuit::Qubit> qubits; // reused by every gate statement
    bool saw_header = false;

    detail::Statements statements(text, source_name);
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
        if (detail::is_any_of(head, {"include", "creg", "barrier", "id"})) {
            continue; // accepted, irrelevant to the latency model
        }
        if (detail::is_any_of(head, {"measure", "reset", "if", "gate", "u", "u1", "u2", "u3",
                                     "rx", "ry", "rz", "cu1"})) {
            throw error("unsupported OpenQASM construct '" + excerpt(head) +
                        "' (LEQA consumes FT Clifford+T netlists)");
        }
        if (util::iequals(head, "qreg")) {
            const std::string_view declaration = lex::next_token(rest);
            if (declaration.empty() || !lex::next_token(rest).empty()) {
                throw error("qreg expects one declaration");
            }
            const detail::Operand decl = detail::parse_operand(declaration, error);
            if (registers.find(decl.reg) != registers.end()) {
                throw error("duplicate qreg '" + excerpt(decl.reg) + "'");
            }
            if (decl.index <= 0) throw error("qreg size must be positive");
            detail::check_declared(num_qubits, decl.index, "qreg", error);
            const std::string reg(decl.reg);
            for (long long i = 0; i < decl.index; ++i) {
                out.add_qubit(reg + "[" + std::to_string(i) + "]");
            }
            registers.emplace(reg, Register{num_qubits, decl.index});
            num_qubits += static_cast<circuit::Qubit>(decl.index);
            continue;
        }

        // Gate application: mnemonic operand-list (operands split on ',').
        const auto kind = circuit::find_gate_name(head);
        if (!kind) throw error("unknown gate '" + excerpt(head) + "'");
        qubits.clear();
        for (std::string_view list = rest; !list.empty();) {
            const std::size_t comma = std::min(list.find(','), list.size());
            const std::string_view token = util::trim_view(list.substr(0, comma));
            list.remove_prefix(std::min(comma + 1, list.size()));
            if (token.empty()) continue;
            const detail::Operand operand = detail::parse_operand(token, error);
            const auto it = registers.find(operand.reg);
            if (it == registers.end()) {
                throw error("unknown qreg '" + excerpt(operand.reg) + "'");
            }
            if (operand.index >= it->second.size) {
                throw error("index out of range for qreg '" + excerpt(operand.reg) + "'");
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
            out.add_gate(
                circuit::Gate(*kind, all.first(needed - n_targets), all.last(n_targets)));
        } catch (const util::InputError& e) {
            throw error(e.what());
        }
    }
}

/// Read a netlist file's \p text into \p out with the reader load_netlist
/// picks: .real by the extension of \p path, then OpenQASM when the text
/// starts with its header, else the QASM subset.  \p path names the
/// source in messages.
template <class Out>
void parse_netlist_into(std::string_view text, const std::string& path, Out& out) {
    if (util::ends_with(util::to_lower(path), ".real")) {
        parse_real_into(text, path, out);
    } else if (looks_like_openqasm(text)) {
        parse_openqasm_into(text, path, out);
    } else {
        parse_qasm_into(text, path, out);
    }
}

} // namespace leqa::parser
