/// \file circuit.h
/// \brief The Circuit container: an ordered list of gates over named qubits.
#pragma once

#include <array>
#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/gate.h"
#include "circuit/qubit_index.h"

namespace leqa::circuit {

/// Per-kind gate census.
struct GateCounts {
    std::array<std::size_t, kGateKindCount> by_kind{};

    [[nodiscard]] std::size_t of(GateKind kind) const {
        return by_kind[static_cast<std::size_t>(kind)];
    }
    [[nodiscard]] std::size_t total() const;
    [[nodiscard]] std::size_t one_qubit_ft() const;   ///< X..Tdg
    [[nodiscard]] std::string to_string() const;
};

/// An ordered quantum circuit over `num_qubits()` logical qubits.
///
/// Qubits are dense indices 0..n-1 with names (auto "q<i>"), kept in a
/// QubitIndex that answers find_qubit.  Gates are stored in
/// program order; the class offers fluent builders (`c.h(0).cnot(0,1)`),
/// census helpers, validation, and structural comparison.  Metadata fields
/// (name, provenance comments) survive the netlist writers/parsers.
class Circuit {
public:
    Circuit() = default;
    explicit Circuit(std::size_t num_qubits, std::string name = "");

    // --- qubit management -------------------------------------------------
    [[nodiscard]] std::size_t num_qubits() const { return qubits_.size(); }

    /// Append a new qubit; returns its index.  Auto-names "q<i>" when
    /// \p name is empty.  Throws InputError("duplicate qubit name: <name>")
    /// on a name already taken.
    Qubit add_qubit(std::string_view name = {});

    [[nodiscard]] const std::string& qubit_name(Qubit q) const;
    /// Index of a named qubit, or nullopt; a lookup in the QubitIndex that
    /// does not allocate.
    [[nodiscard]] std::optional<Qubit> find_qubit(std::string_view name) const {
        return qubits_.find(name);
    }

    // --- gate management --------------------------------------------------
    /// Append a gate after validating it against the current qubit count.
    /// Throws InputError on invalid operands.
    void add_gate(const Gate& gate);

    /// Reserve room for \p gates gates in total.
    void reserve_gates(std::size_t gates) { gates_.reserve(gates); }

    [[nodiscard]] const std::vector<Gate>& gates() const { return gates_; }
    [[nodiscard]] std::size_t size() const { return gates_.size(); }
    [[nodiscard]] bool empty() const { return gates_.empty(); }
    [[nodiscard]] const Gate& gate(std::size_t i) const { return gates_.at(i); }

    /// Fluent builders (all return *this).
    Circuit& x(Qubit q);
    Circuit& y(Qubit q);
    Circuit& z(Qubit q);
    Circuit& h(Qubit q);
    Circuit& s(Qubit q);
    Circuit& sdg(Qubit q);
    Circuit& t(Qubit q);
    Circuit& tdg(Qubit q);
    Circuit& cnot(Qubit control, Qubit target);
    Circuit& toffoli(Qubit c0, Qubit c1, Qubit target);
    Circuit& mcx(std::span<const Qubit> controls, Qubit target);
    Circuit& fredkin(Qubit control, Qubit a, Qubit b);
    Circuit& swap(Qubit a, Qubit b);

    /// Append all gates of \p other (qubit indices must be compatible).
    void append(const Circuit& other);

    // --- analysis ---------------------------------------------------------
    [[nodiscard]] GateCounts counts() const;

    /// True if every gate is in the FT set {X,Y,Z,H,S,Sdg,T,Tdg,CNOT}.
    [[nodiscard]] bool is_ft() const;

    /// True if every gate permutes computational basis states
    /// (X/CNOT/Toffoli/Fredkin/SWAP only).
    [[nodiscard]] bool is_classical() const;

    /// Indices of qubits never referenced by any gate.
    [[nodiscard]] std::vector<Qubit> unused_qubits() const;

    /// Number of gates touching >= 2 qubits.
    [[nodiscard]] std::size_t two_qubit_gate_count() const;

    // --- metadata ----------------------------------------------------------
    [[nodiscard]] const std::string& name() const { return name_; }
    void set_name(std::string name) { name_ = std::move(name); }

    /// Free-form provenance lines (generator, parameters, seed); the netlist
    /// writers emit them as header comments.
    [[nodiscard]] const std::vector<std::string>& comments() const { return comments_; }
    void add_comment(std::string line) { comments_.push_back(std::move(line)); }

    /// Re-validate every gate against the current qubit count.
    void validate() const;

    /// Structural equality: same qubit count, same gate sequence.
    /// Names/comments are ignored.
    [[nodiscard]] bool same_structure(const Circuit& other) const;

private:
    std::string name_;
    QubitIndex qubits_; ///< names, and the index over them
    std::vector<Gate> gates_;
    std::vector<std::string> comments_;
};

} // namespace leqa::circuit
