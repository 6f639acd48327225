/// \file qubit_index.h
/// \brief Qubit names and the one index over them.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/gate.h"

namespace leqa::circuit {

/// The names of qubits 0..n-1 and an open-addressed table from name to id.
///
/// The table stays at most three quarters full and probes linearly from a
/// slot picked by a hash that reads the name a word at a time: one
/// multiply per 8 bytes.  Each 12-byte slot keeps, beside its id, a key of
/// the name's first 8 bytes and its length, so a lookup of a name of 7
/// bytes or less (every netlist name the generators write) costs the hash,
/// about one slot read and one 64-bit compare, never reads the names, and
/// allocates nothing.  `Circuit` keeps its names here, and the QASM-subset
/// and .real readers resolve operand names through their own instance.
class QubitIndex {
public:
    /// Append \p name as qubit size().  Returns false, and changes nothing,
    /// when the name is already taken.
    bool add(std::string_view name);

    /// Id of the qubit named \p name, or nullopt.
    [[nodiscard]] std::optional<Qubit> find(std::string_view name) const {
        if (slots_.empty()) return std::nullopt;
        const std::uint64_t head = word(name.data(), name.size());
        const std::uint64_t key = key_of(head, name.size());
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = slot_of(name, head); ; i = (i + 1) & mask) {
            const Slot& slot = slots_[i];
            if (slot.id == 0) return std::nullopt;
            if (std::bit_cast<std::uint64_t>(slot.key) == key &&
                (name.size() < 8 || names_[slot.id - 1] == name)) {
                return slot.id - 1;
            }
        }
    }

    [[nodiscard]] const std::string& name(Qubit q) const { return names_[q]; }
    [[nodiscard]] std::size_t size() const { return names_.size(); }

private:
    /// Two 32-bit halves, so that a slot takes 12 bytes.
    struct Slot {
        std::array<std::uint32_t, 2> key{}; ///< key_of() the name
        std::uint32_t id = 0;               ///< qubit id + 1, 0 when empty
    };

    /// A name's key: its word() with its length in the top byte, which is
    /// free for a name of up to 7 bytes, and 0xFF there for a longer name,
    /// whose bytes find() then compares.  Equal keys of short names mean
    /// equal names.
    [[nodiscard]] static std::uint64_t key_of(std::uint64_t head, std::size_t size) {
        const std::uint64_t top = size < 8 ? size : 0xFF;
        return (head & 0x00FF'FFFF'FFFF'FFFFULL) | top << 56;
    }

    /// Bytes [0, min(n, 8)) of \p p as a little-endian word, zero above.
    /// Reads no byte past p + n, as a name may end the text it lies in.
    [[nodiscard]] static std::uint64_t word(const char* p, std::size_t n) {
        // Two loads that overlap unless n is twice their size; names of 2
        // to 4 bytes, the most common, all take the same branches.
        if (n >= 8) return load<std::uint64_t>(p);
        if (n > 4) {
            return load<std::uint32_t>(p) | load<std::uint32_t>(p + n - 4) << (8 * (n - 4));
        }
        if (n >= 2) {
            return load<std::uint16_t>(p) | load<std::uint16_t>(p + n - 2) << (8 * (n - 2));
        }
        return n == 1 ? static_cast<unsigned char>(p[0]) : 0;
    }
    /// The little-endian word of the sizeof(Word) bytes at \p p.
    template <class Word>
    [[nodiscard]] static std::uint64_t load(const char* p) {
        std::array<unsigned char, sizeof(Word)> bytes;
        std::memcpy(bytes.data(), p, bytes.size());
        if constexpr (std::endian::native == std::endian::big) {
            std::reverse(bytes.begin(), bytes.end());
        }
        return std::bit_cast<Word>(bytes);
    }
    /// The home slot of \p name, whose first word is \p head: each word is
    /// folded in and multiplied by the 64-bit golden ratio, and the top
    /// bits pick the slot (netlist names differ in their last digits, which
    /// the multiply carries into the top bits).
    [[nodiscard]] std::size_t slot_of(std::string_view name, std::uint64_t head) const {
        constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ULL;
        std::uint64_t hash = head * kGolden;
        for (std::size_t at = 8; at < name.size(); at += 8) {
            hash = (hash ^ word(name.data() + at, name.size() - at)) * kGolden;
        }
        return static_cast<std::size_t>(hash >> shift_);
    }
    /// Store qubit \p id in the first free slot from its home slot.
    void place(std::size_t id);
    /// Rebuild the table at \p slots slots (a power of two).
    void rehash(std::size_t slots);

    std::vector<std::string> names_;
    std::vector<Slot> slots_;
    unsigned shift_ = 64; ///< 64 - log2(slots_.size())
};

} // namespace leqa::circuit
