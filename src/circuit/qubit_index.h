/// \file qubit_index.h
/// \brief Qubit names and the one index over them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/gate.h"

namespace leqa::circuit {

/// The names of qubits 0..n-1 and an open-addressed table from name to id.
///
/// The table holds id + 1 per slot (0 is empty), stays at most half full,
/// and probes linearly from a slot picked by an FNV-1a hash, so a lookup
/// of a netlist operand costs that hash (which the QASM-subset scanner
/// folds in while it reads the name), about one slot read and one string
/// compare, and allocates nothing.  `Circuit` keeps its names here, and
/// the QASM-subset and .real readers resolve operand names through their
/// own instance.
class QubitIndex {
public:
    /// Append \p name as qubit size().  Returns false, and changes nothing,
    /// when the name is already taken.
    bool add(std::string_view name);

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

    /// Id of the qubit named \p name, or nullopt.
    [[nodiscard]] std::optional<Qubit> find(std::string_view name) const {
        return find(name, Hash::of(name));
    }
    /// find(name) given \p hash, the Hash of \p name.
    [[nodiscard]] std::optional<Qubit> find(std::string_view name, Hash hash) const {
        if (slots_.empty()) return std::nullopt;
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = slot_of(hash); ; i = (i + 1) & mask) {
            const std::uint32_t slot = slots_[i];
            if (slot == 0) return std::nullopt;
            if (same(names_[slot - 1], name)) return slot - 1;
        }
    }

    [[nodiscard]] const std::string& name(Qubit q) const { return names_[q]; }
    [[nodiscard]] std::size_t size() const { return names_.size(); }

private:
    /// Name equality without a memcmp call: names are a few bytes.
    [[nodiscard]] static bool same(std::string_view a, std::string_view b) {
        if (a.size() != b.size()) return false;
        for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i] != b[i]) return false;
        }
        return true;
    }
    /// The home slot of a name: its Hash times the 64-bit golden ratio,
    /// whose top bits pick the slot.  (FNV's own top bits hardly depend on
    /// the last byte, and netlist names differ in their last digits.)
    [[nodiscard]] std::size_t slot_of(Hash hash) const {
        return static_cast<std::size_t>((hash.value * 0x9E3779B97F4A7C15ULL) >> shift_);
    }
    /// Store qubit \p id in the first free slot from its home slot.
    void place(std::size_t id);
    /// Rebuild the table at \p slots slots (a power of two).
    void rehash(std::size_t slots);

    std::vector<std::string> names_;
    std::vector<std::uint32_t> slots_; ///< id + 1 per slot, 0 when empty
    unsigned shift_ = 64;              ///< 64 - log2(slots_.size())
};

} // namespace leqa::circuit
