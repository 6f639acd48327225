/// \file statevector.h
/// \brief Small dense statevector simulator.
///
/// Used by the test suite to verify synthesis passes at the unitary level
/// (e.g. that the 15-gate FT realization of the Toffoli gate implements the
/// Toffoli unitary exactly).  Supports up to ~20 qubits; this is a
/// verification tool, not a performance simulator.
#pragma once

#include <complex>
#include <vector>

#include "circuit/circuit.h"

namespace leqa::sim {

using Amplitude = std::complex<double>;

/// Dense statevector over n qubits (qubit 0 = least significant bit of the
/// amplitude index).
class StateVector {
public:
    /// Initialize to |0...0>.
    explicit StateVector(std::size_t num_qubits);

    /// Initialize to a computational basis state |value>.
    static StateVector basis(std::size_t num_qubits, std::uint64_t value);

    [[nodiscard]] std::size_t num_qubits() const { return num_qubits_; }
    [[nodiscard]] std::size_t dimension() const { return amplitudes_.size(); }
    [[nodiscard]] const std::vector<Amplitude>& amplitudes() const { return amplitudes_; }
    [[nodiscard]] Amplitude amplitude(std::uint64_t index) const;

    /// Apply a single gate (any GateKind, including multi-controlled).
    void apply(const circuit::Gate& gate);

    /// Apply every gate of a circuit in order.
    void run(const circuit::Circuit& circ);

    /// Sum of |amplitude|^2 (should stay 1 within rounding).
    [[nodiscard]] double norm() const;

    /// |<this|other>|: 1 for identical physical states (phase-insensitive).
    [[nodiscard]] double fidelity(const StateVector& other) const;

    /// Max |a_i - b_i| over all amplitudes (phase-sensitive comparison).
    [[nodiscard]] double max_difference(const StateVector& other) const;

private:
    void apply_one_qubit(const Amplitude m[2][2], circuit::Qubit target,
                         std::span<const circuit::Qubit> controls);
    void apply_swap(circuit::Qubit a, circuit::Qubit b,
                    std::span<const circuit::Qubit> controls);

    std::size_t num_qubits_;
    std::vector<Amplitude> amplitudes_;
};

/// Compare two circuits as unitaries by running both on every basis state;
/// returns the maximum amplitude difference (phase-sensitive).  Requires
/// equal qubit counts and <= 12 qubits.
[[nodiscard]] double max_unitary_difference(const circuit::Circuit& a,
                                            const circuit::Circuit& b);

/// Like max_unitary_difference, but treats circuit \p b as acting on the
/// first `a.num_qubits()` qubits of a larger register whose remaining
/// (ancilla) qubits start and must end in |0>.  Returns max difference on
/// the embedded subspace and throws InternalError if the ancillas do not
/// return to |0> (within tolerance).
[[nodiscard]] double max_unitary_difference_with_ancilla(const circuit::Circuit& a,
                                                         const circuit::Circuit& b,
                                                         double ancilla_tolerance = 1e-9);

} // namespace leqa::sim
