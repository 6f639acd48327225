/// \file gate.h
/// \brief Gate kinds, per-kind metadata, and the Gate record.
///
/// The library distinguishes three gate tiers (paper §2):
///   - reversible-logic gates produced by synthesis: NOT/X, CNOT, Toffoli
///     (any number of controls), Fredkin (controlled SWAP, any number of
///     controls), SWAP;
///   - the fault-tolerant (FT) operation set the fabric executes:
///     {CNOT, H, T, T-dagger, S, S-dagger, X, Y, Z};
///   - everything else is rejected by the FT-checking passes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace leqa::circuit {

/// Logical qubit index within a Circuit.
using Qubit = std::uint32_t;

enum class GateKind : std::uint8_t {
    // One-qubit FT operations.
    X,
    Y,
    Z,
    H,
    S,
    Sdg, ///< S-dagger (inverse phase)
    T,
    Tdg, ///< T-dagger (-pi/4 rotation)
    // Two-qubit FT operation (the only one, per the paper).
    Cnot,
    // Reversible-logic gates that FT synthesis lowers.
    Toffoli, ///< multi-controlled X; >= 1 control
    Fredkin, ///< multi-controlled SWAP; >= 1 control
    Swap,
};

/// Number of distinct GateKind values (for array-indexed tables).
inline constexpr std::size_t kGateKindCount = static_cast<std::size_t>(GateKind::Swap) + 1;

/// Static metadata for a gate kind.
struct GateInfo {
    const char* name;        ///< canonical lower-case mnemonic
    int min_controls;        ///< minimum number of control qubits
    int max_controls;        ///< maximum (-1 = unbounded)
    int targets;             ///< number of target qubits
    bool is_ft;              ///< member of the FT operation set
    bool is_classical;       ///< permutation of computational basis states
    bool is_self_inverse;    ///< U^2 = I
};

/// Per-kind metadata, indexed by GateKind.  max_controls == -1 means
/// unbounded.
inline constexpr std::array<GateInfo, kGateKindCount> kGateTable = {{
    /* X       */ {"x", 0, 0, 1, true, true, true},
    /* Y       */ {"y", 0, 0, 1, true, false, true},
    /* Z       */ {"z", 0, 0, 1, true, false, true},
    /* H       */ {"h", 0, 0, 1, true, false, true},
    /* S       */ {"s", 0, 0, 1, true, false, false},
    /* Sdg     */ {"sdg", 0, 0, 1, true, false, false},
    /* T       */ {"t", 0, 0, 1, true, false, false},
    /* Tdg     */ {"tdg", 0, 0, 1, true, false, false},
    /* Cnot    */ {"cnot", 1, 1, 1, true, true, true},
    /* Toffoli */ {"toffoli", 1, -1, 1, false, true, true},
    /* Fredkin */ {"fredkin", 1, -1, 2, false, true, true},
    /* Swap    */ {"swap", 0, 0, 2, false, true, true},
}};

/// Metadata lookup (never fails; kind is a closed enum).
[[nodiscard]] constexpr const GateInfo& gate_info(GateKind kind) {
    return kGateTable[static_cast<std::size_t>(kind)];
}

/// Canonical mnemonic, e.g. "cnot", "tdg".
[[nodiscard]] std::string gate_name(GateKind kind);

/// Resolve a mnemonic or alias (case-insensitive) without allocating;
/// nullopt if unknown.
[[nodiscard]] std::optional<GateKind> find_gate_name(std::string_view name);

/// find_gate_name that throws InputError if the mnemonic is unknown.
[[nodiscard]] GateKind parse_gate_name(std::string_view name);

/// A single gate application: kind + control qubits + target qubits.
///
/// Operands are stored controls first, then targets.  Up to three live
/// inline in the record, which covers every FT gate and the 3-input
/// Toffoli/Fredkin; only a gate with four or more operands (a
/// multi-controlled Toffoli/Fredkin in pre-FT input) spills all of them to
/// the heap.  The representation is canonical — unused inline slots stay
/// zero and the spill is empty unless used — so the defaulted copy, move
/// and == are exact.
///
/// Controls and targets must be disjoint and duplicate-free; Gate::validate
/// enforces this.  For Fredkin the two swapped qubits are the targets.
///
/// Construction and the checks of an inline gate are defined here; a
/// spilled gate, and any gate that fails a check, takes the out-of-line
/// path, which runs every check in order and throws the first failure's
/// message.
class Gate {
public:
    /// Operands held in the record itself.
    static constexpr std::size_t kInlineQubits = 3;

    GateKind kind = GateKind::X;

    Gate() = default;
    /// Throws InputError for more than 65535 controls or 255 targets, far
    /// beyond any real netlist.
    Gate(GateKind k, std::span<const Qubit> controls, std::span<const Qubit> targets)
        : kind(k) {
        if (controls.size() + targets.size() > kInlineQubits) {
            spill(controls, targets);
            return;
        }
        num_controls_ = static_cast<std::uint16_t>(controls.size());
        num_targets_ = static_cast<std::uint8_t>(targets.size());
        // Slot by slot: GCC turns a copy loop over a span of unknown size
        // into a memcpy call, which costs more than the three slots.
        for (std::size_t i = 0; i < kInlineQubits; ++i) {
            if (i < controls.size()) {
                inline_[i] = controls[i];
            } else if (i - controls.size() < targets.size()) {
                inline_[i] = targets[i - controls.size()];
            }
        }
    }

    [[nodiscard]] std::span<const Qubit> controls() const { return {data(), num_controls_}; }
    [[nodiscard]] std::span<const Qubit> targets() const {
        return {data() + num_controls_, num_targets_};
    }
    /// All touched qubits, controls first.
    [[nodiscard]] std::span<const Qubit> qubits() const { return {data(), arity()}; }

    /// Total qubits touched (controls + targets).
    [[nodiscard]] std::size_t arity() const {
        return static_cast<std::size_t>(num_controls_) + num_targets_;
    }

    /// True for gates touching exactly two qubits (CNOT, SWAP, 1-ctl ops).
    [[nodiscard]] bool is_two_qubit() const { return arity() == 2; }

    /// True if the gate is in the FT set {X,Y,Z,H,S,Sdg,T,Tdg,CNOT}.
    [[nodiscard]] bool is_ft() const { return gate_info(kind).is_ft; }

    /// Throws InputError if control/target counts are invalid for the kind,
    /// or if any qubit repeats.
    void validate() const {
        if (!spill_.empty() || !inline_valid()) validate_slow();
    }

    /// validate() plus: throws InputError if any qubit index is
    /// >= num_qubits.
    void validate_against(std::size_t num_qubits) const {
        validate();
        for (const Qubit q : qubits()) {
            if (q >= num_qubits) [[unlikely]] throw_out_of_range(q, num_qubits);
        }
    }

    /// Human-readable form, e.g. "toffoli q0, q1 -> q2".
    [[nodiscard]] std::string to_string() const;

    [[nodiscard]] bool operator==(const Gate& other) const = default;

private:
    [[nodiscard]] const Qubit* data() const {
        return spill_.empty() ? inline_.data() : spill_.data();
    }

    /// validate() of an inline gate: the counts fit the kind and no inline
    /// operand repeats.
    [[nodiscard]] bool inline_valid() const {
        const GateInfo& info = gate_info(kind);
        if (num_controls_ < info.min_controls ||
            (info.max_controls >= 0 && num_controls_ > info.max_controls) ||
            num_targets_ != info.targets) {
            return false;
        }
        const Qubit* q = inline_.data();
        switch (arity()) {
            case 3: return q[0] != q[1] && q[0] != q[2] && q[1] != q[2];
            case 2: return q[0] != q[1];
            default: return true;
        }
    }

    /// The constructor's path for more than kInlineQubits operands.
    void spill(std::span<const Qubit> controls, std::span<const Qubit> targets);
    /// Every check of validate(), in order: throws the first failure, or
    /// returns for a valid spilled gate.
    void validate_slow() const;
    [[noreturn]] static void throw_out_of_range(Qubit q, std::size_t num_qubits);

    std::uint8_t num_targets_ = 0;
    std::uint16_t num_controls_ = 0;
    std::array<Qubit, kInlineQubits> inline_{};
    std::vector<Qubit> spill_; ///< all operands when arity > kInlineQubits
};

static_assert(sizeof(Gate) <= 40, "Gate must stay a 40-byte record");

/// One gate of a fixed network, written over operand slots instead of
/// qubits: a one-qubit gate on slot `first` (`second == first`), or a
/// two-qubit gate from control slot `first` to target slot `second`.
struct NetworkStep {
    GateKind kind = GateKind::X;
    std::uint8_t first = 0;
    std::uint8_t second = 0;
    [[nodiscard]] constexpr bool one_qubit() const { return first == second; }
    [[nodiscard]] Gate gate(std::span<const Qubit> slots) const {
        return Gate(kind, one_qubit() ? slots.first(0) : slots.subspan(first, 1),
                    slots.subspan(second, 1));
    }
};

/// Convenience constructors for the common gates.
[[nodiscard]] inline Gate make_x(Qubit q) { return Gate(GateKind::X, {}, {&q, 1}); }
[[nodiscard]] inline Gate make_y(Qubit q) { return Gate(GateKind::Y, {}, {&q, 1}); }
[[nodiscard]] inline Gate make_z(Qubit q) { return Gate(GateKind::Z, {}, {&q, 1}); }
[[nodiscard]] inline Gate make_h(Qubit q) { return Gate(GateKind::H, {}, {&q, 1}); }
[[nodiscard]] inline Gate make_s(Qubit q) { return Gate(GateKind::S, {}, {&q, 1}); }
[[nodiscard]] inline Gate make_sdg(Qubit q) { return Gate(GateKind::Sdg, {}, {&q, 1}); }
[[nodiscard]] inline Gate make_t(Qubit q) { return Gate(GateKind::T, {}, {&q, 1}); }
[[nodiscard]] inline Gate make_tdg(Qubit q) { return Gate(GateKind::Tdg, {}, {&q, 1}); }
[[nodiscard]] inline Gate make_cnot(Qubit control, Qubit target) {
    return Gate(GateKind::Cnot, {&control, 1}, {&target, 1});
}
[[nodiscard]] inline Gate make_toffoli(Qubit c0, Qubit c1, Qubit target) {
    const Qubit controls[] = {c0, c1};
    return Gate(GateKind::Toffoli, controls, {&target, 1});
}
/// k-controlled X; a single control yields a CNOT.
[[nodiscard]] Gate make_mcx(std::span<const Qubit> controls, Qubit target);
[[nodiscard]] Gate make_fredkin(Qubit control, Qubit a, Qubit b);
[[nodiscard]] Gate make_mcswap(std::span<const Qubit> controls, Qubit a, Qubit b);
[[nodiscard]] Gate make_swap(Qubit a, Qubit b);

} // namespace leqa::circuit
