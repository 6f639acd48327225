/// \file qasm_reference.h
/// \brief The QASM-subset reader as it was before the chunk scanner: a
///        byte-at-a-time scanner and an FNV-1a name index.  Test-only.
///
/// `parser::parse_qasm_into` (parser/readers.h) classifies its text 16
/// bytes per step and keys qubit names by their first 8 bytes.  This
/// header keeps the reader it replaced, unchanged but for its namespace:
/// `ByteQasmLines` walks the text one byte at a time through a 256-entry
/// class table, and `FnvQubitIndex` probes from an FNV-1a hash that the
/// scanner folds in while it reads each operand.  It shares the reader's
/// mnemonic switch, declaration bound and diagnostics, which the chunk
/// scanner did not change.  The parser tests and the `fuzz_qasm` harness
/// require both readers to give the same verdict on every text: the same
/// tape, or the same message on the same line.
///
/// Only tests and fuzz harnesses include this header; the library cannot.
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
#include <vector>

#include "circuit/gate.h"
#include "parser/diagnostics.h"
#include "parser/readers.h"
#include "util/error.h"
#include "util/strings.h"

namespace leqa::parser::reference {

/// The names of qubits 0..n-1 and an open-addressed table from name to id,
/// probed linearly from an FNV-1a hash times the 64-bit golden ratio.
class FnvQubitIndex {
public:
    /// The FNV-1a hash lookups start from, folded in one byte at a time,
    /// so a scanner can hash a name while it reads it.
    struct Hash {
        std::uint64_t value = 14695981039346656037ULL;
        void add(char c) { value = (value ^ static_cast<unsigned char>(c)) * 1099511628211ULL; }
        [[nodiscard]] static Hash of(std::string_view name) {
            Hash hash;
            for (const char c : name) hash.add(c);
            return hash;
        }
    };

    /// Append \p name as qubit size(); false when the name is taken.
    bool add(std::string_view name) {
        if (find(name, Hash::of(name))) return false;
        names_.emplace_back(name);
        if (2 * names_.size() > slots_.size()) {
            rehash(std::max<std::size_t>(16, 2 * slots_.size()));
        } else {
            place(names_.size() - 1);
        }
        return true;
    }

    /// Id of the qubit named \p name, whose Hash is \p hash, or nullopt.
    [[nodiscard]] std::optional<circuit::Qubit> find(std::string_view name, Hash hash) const {
        if (slots_.empty()) return std::nullopt;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = slot_of(hash); ; i = (i + 1) & mask) {
            const std::uint32_t slot = slots_[i];
            if (slot == 0) return std::nullopt;
            if (same(names_[slot - 1], name)) return slot - 1;
        }
    }

    [[nodiscard]] std::size_t size() const { return names_.size(); }

private:
    [[nodiscard]] static bool same(std::string_view a, std::string_view b) {
        if (a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i]) return false;
        }
        return true;
    }
    [[nodiscard]] std::size_t slot_of(Hash hash) const {
        return static_cast<std::size_t>((hash.value * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    void place(std::size_t id) {
        const std::size_t mask = slots_.size() - 1;
        std::size_t i = slot_of(Hash::of(names_[id]));
        while (slots_[i] != 0) i = (i + 1) & mask;
        slots_[i] = static_cast<std::uint32_t>(id + 1);
    }
    void rehash(std::size_t slots) {
        slots_.assign(slots, 0);
        shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots));
        for (std::size_t id = 0; id < names_.size(); ++id) place(id);
    }

    std::vector<std::string> names_;
    std::vector<std::uint32_t> slots_; ///< id + 1 per slot, 0 when empty
    unsigned shift_ = 64;              ///< 64 - log2(slots_.size())
};

/// The lines of a QASM-subset text, each scanned once a byte at a time:
/// a 256-entry class table sorts each byte into word, ',', space, '/' or
/// stop ('#', '\n').
class ByteQasmLines {
public:
    explicit ByteQasmLines(std::string_view text)
        : pos_(text.data()), end_(text.data() + text.size()) {}

    /// Move to the start of the next line; false at the end of the text.
    bool next() {
        if (number_ > 0) {
            // The scan stopped at the line end, a comment or the text end.
            const void* newline =
                pos_ != end_ && *pos_ == '\n'
                    ? pos_
                    : std::memchr(pos_, '\n', static_cast<std::size_t>(end_ - pos_));
            pos_ = newline == nullptr ? end_ : static_cast<const char*>(newline) + 1;
        }
        if (pos_ == end_) return false;
        ++number_;
        return true;
    }

    /// The next token of the line, split on whitespace only.
    std::string_view token() {
        const char* p = pos_;
        while (p != end_ && kClass[byte(*p)] == kSpace) ++p;
        const char* const begin = p;
        while (p != end_ && (kClass[byte(*p)] == kWord || *p == ',' || lone_slash(p))) ++p;
        pos_ = p;
        return {begin, static_cast<std::size_t>(p - begin)};
    }

    /// The next operand of the line, split on whitespace or ',', added to
    /// \p hash as it is read.
    std::string_view operand(FnvQubitIndex::Hash& hash) {
        const char* p = pos_;
        while (p != end_ && (kClass[byte(*p)] == kSpace || kClass[byte(*p)] == kComma)) ++p;
        const char* const begin = p;
        while (p != end_ && (kClass[byte(*p)] == kWord || lone_slash(p))) hash.add(*p++);
        pos_ = p;
        return {begin, static_cast<std::size_t>(p - begin)};
    }

    [[nodiscard]] std::size_t number() const { return number_; }

private:
    enum : std::uint8_t { kWord, kComma, kSpace, kSlash, kStop };
    static constexpr std::array<std::uint8_t, 256> kClass = [] {
        std::array<std::uint8_t, 256> table{};
        for (int c = 0; c < 256; ++c) {
            if (util::is_space(static_cast<char>(c))) table[c] = kSpace;
        }
        table[static_cast<unsigned char>(',')] = kComma;
        table[static_cast<unsigned char>('/')] = kSlash;
        table[static_cast<unsigned char>('#')] = kStop;
        table[static_cast<unsigned char>('\n')] = kStop;
        return table;
    }();
    static std::size_t byte(char c) { return static_cast<unsigned char>(c); }
    [[nodiscard]] bool lone_slash(const char* p) const {
        return *p == '/' && (p + 1 == end_ || p[1] != '/');
    }

    const char* pos_;
    const char* end_;
    std::size_t number_ = 0;
};

/// The QASM-subset reader over ByteQasmLines and FnvQubitIndex.
template <class Out>
void parse_qasm_into(std::string_view text, const std::string& source_name, Out& out) {
    ByteQasmLines lines(text);
    const auto error = [&](const std::string& message) {
        return ParseError({source_name, lines.number()}, message);
    };
    FnvQubitIndex names;
    const auto add_qubit = [&](std::string_view name) {
        if (!names.add(name)) {
            throw error("requirement failed: duplicate qubit name: " + excerpt(name));
        }
        out.add_qubit(name);
    };
    bool qubits_declared = false;
    std::vector<circuit::Qubit> operands;

    while (lines.next()) {
        const std::string_view head = lines.token();
        if (head.empty()) continue;
        std::optional<circuit::GateKind> kind = detail::ft_mnemonic(head);

        if (!kind && (head[0] == '.' || util::iequals(head, "qubit"))) {
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
                for (long long i = 0; i < *count; ++i) add_qubit("q" + std::to_string(i));
                qubits_declared = true;
            } else if (head[0] != '.') {
                if (!one_arg) throw error("qubit expects one name");
                if (!util::is_identifier(arg)) {
                    throw error("invalid qubit name '" + excerpt(arg) + "'");
                }
                detail::check_declared(names.size(), 1, "qubit", error);
                add_qubit(arg);
            } else {
                throw error("unknown directive '" + excerpt(head) + "'");
            }
            continue;
        }

        if (!kind) kind = circuit::find_gate_name(head);
        if (!kind) throw error("unknown gate or keyword '" + excerpt(head) + "'");
        operands.clear();
        for (;;) {
            FnvQubitIndex::Hash hash;
            const std::string_view token = lines.operand(hash);
            if (token.empty()) break;
            const std::optional<circuit::Qubit> q = names.find(token, hash);
            if (!q) throw error("unknown qubit '" + excerpt(token) + "'");
            operands.push_back(*q);
        }
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

} // namespace leqa::parser::reference
