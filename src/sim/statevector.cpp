#include "sim/statevector.h"

#include <cmath>
#include <numbers>

#include "util/error.h"

namespace leqa::sim {

namespace {
constexpr Amplitude kI{0.0, 1.0};

struct OneQubitMatrix {
    Amplitude m[2][2];
};

OneQubitMatrix matrix_for(circuit::GateKind kind) {
    const double inv_sqrt2 = 1.0 / std::numbers::sqrt2;
    const Amplitude t_phase = std::exp(kI * (std::numbers::pi / 4.0));
    const Amplitude tdg_phase = std::exp(-kI * (std::numbers::pi / 4.0));
    switch (kind) {
        case circuit::GateKind::X:
            return {{{0, 1}, {1, 0}}};
        case circuit::GateKind::Y:
            return {{{0, -kI}, {kI, 0}}};
        case circuit::GateKind::Z:
            return {{{1, 0}, {0, -1}}};
        case circuit::GateKind::H:
            return {{{inv_sqrt2, inv_sqrt2}, {inv_sqrt2, -inv_sqrt2}}};
        case circuit::GateKind::S:
            return {{{1, 0}, {0, kI}}};
        case circuit::GateKind::Sdg:
            return {{{1, 0}, {0, -kI}}};
        case circuit::GateKind::T:
            return {{{1, 0}, {0, t_phase}}};
        case circuit::GateKind::Tdg:
            return {{{1, 0}, {0, tdg_phase}}};
        default:
            throw util::InternalError("matrix_for: not a one-qubit gate");
    }
}
} // namespace

StateVector::StateVector(std::size_t num_qubits) : num_qubits_(num_qubits) {
    LEQA_REQUIRE(num_qubits <= 24, "statevector simulator supports at most 24 qubits");
    amplitudes_.assign(std::size_t{1} << num_qubits, Amplitude{0.0, 0.0});
    amplitudes_[0] = Amplitude{1.0, 0.0};
}

StateVector StateVector::basis(std::size_t num_qubits, std::uint64_t value) {
    StateVector sv(num_qubits);
    LEQA_REQUIRE(value < sv.amplitudes_.size(), "basis state out of range");
    sv.amplitudes_[0] = Amplitude{0.0, 0.0};
    sv.amplitudes_[value] = Amplitude{1.0, 0.0};
    return sv;
}

Amplitude StateVector::amplitude(std::uint64_t index) const {
    LEQA_REQUIRE(index < amplitudes_.size(), "amplitude index out of range");
    return amplitudes_[index];
}

void StateVector::apply_one_qubit(const Amplitude m[2][2], circuit::Qubit target,
                                  std::span<const circuit::Qubit> controls) {
    const std::uint64_t target_bit = 1ULL << target;
    std::uint64_t control_mask = 0;
    for (const circuit::Qubit c : controls) control_mask |= 1ULL << c;

    for (std::uint64_t index = 0; index < amplitudes_.size(); ++index) {
        if ((index & target_bit) != 0) continue;          // visit each pair once
        if ((index & control_mask) != control_mask) continue;
        const std::uint64_t paired = index | target_bit;
        const Amplitude a0 = amplitudes_[index];
        const Amplitude a1 = amplitudes_[paired];
        amplitudes_[index] = m[0][0] * a0 + m[0][1] * a1;
        amplitudes_[paired] = m[1][0] * a0 + m[1][1] * a1;
    }
}

void StateVector::apply_swap(circuit::Qubit a, circuit::Qubit b,
                             std::span<const circuit::Qubit> controls) {
    const std::uint64_t bit_a = 1ULL << a;
    const std::uint64_t bit_b = 1ULL << b;
    std::uint64_t control_mask = 0;
    for (const circuit::Qubit c : controls) control_mask |= 1ULL << c;

    for (std::uint64_t index = 0; index < amplitudes_.size(); ++index) {
        // Visit only states with qubit a = 1, qubit b = 0 to touch each
        // swapped pair exactly once.
        if ((index & bit_a) == 0 || (index & bit_b) != 0) continue;
        if ((index & control_mask) != control_mask) continue;
        const std::uint64_t paired = (index & ~bit_a) | bit_b;
        std::swap(amplitudes_[index], amplitudes_[paired]);
    }
}

void StateVector::apply(const circuit::Gate& gate) {
    gate.validate_against(num_qubits_);
    switch (gate.kind) {
        case circuit::GateKind::Cnot:
        case circuit::GateKind::Toffoli: {
            const OneQubitMatrix x = matrix_for(circuit::GateKind::X);
            apply_one_qubit(x.m, gate.targets()[0], gate.controls());
            break;
        }
        case circuit::GateKind::Swap:
        case circuit::GateKind::Fredkin:
            apply_swap(gate.targets()[0], gate.targets()[1], gate.controls());
            break;
        default: {
            const OneQubitMatrix m = matrix_for(gate.kind);
            apply_one_qubit(m.m, gate.targets()[0], gate.controls());
            break;
        }
    }
}

void StateVector::run(const circuit::Circuit& circ) {
    LEQA_REQUIRE(circ.num_qubits() == num_qubits_,
                 "statevector width does not match circuit");
    for (const circuit::Gate& g : circ.gates()) apply(g);
}

double StateVector::norm() const {
    double sum = 0.0;
    for (const Amplitude& a : amplitudes_) sum += std::norm(a);
    return std::sqrt(sum);
}

double StateVector::fidelity(const StateVector& other) const {
    LEQA_REQUIRE(num_qubits_ == other.num_qubits_, "fidelity: width mismatch");
    Amplitude overlap{0.0, 0.0};
    for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
        overlap += std::conj(amplitudes_[i]) * other.amplitudes_[i];
    }
    return std::abs(overlap);
}

double StateVector::max_difference(const StateVector& other) const {
    LEQA_REQUIRE(num_qubits_ == other.num_qubits_, "max_difference: width mismatch");
    double max_diff = 0.0;
    for (std::size_t i = 0; i < amplitudes_.size(); ++i) {
        max_diff = std::max(max_diff, std::abs(amplitudes_[i] - other.amplitudes_[i]));
    }
    return max_diff;
}

double max_unitary_difference(const circuit::Circuit& a, const circuit::Circuit& b) {
    LEQA_REQUIRE(a.num_qubits() == b.num_qubits(),
                 "max_unitary_difference: qubit count mismatch");
    LEQA_REQUIRE(a.num_qubits() <= 12, "max_unitary_difference: too many qubits");
    const std::uint64_t dim = 1ULL << a.num_qubits();
    double max_diff = 0.0;
    for (std::uint64_t basis = 0; basis < dim; ++basis) {
        StateVector sa = StateVector::basis(a.num_qubits(), basis);
        StateVector sb = StateVector::basis(b.num_qubits(), basis);
        sa.run(a);
        sb.run(b);
        max_diff = std::max(max_diff, sa.max_difference(sb));
    }
    return max_diff;
}

double max_unitary_difference_with_ancilla(const circuit::Circuit& a,
                                           const circuit::Circuit& b,
                                           double ancilla_tolerance) {
    LEQA_REQUIRE(b.num_qubits() >= a.num_qubits(),
                 "expanded circuit must not have fewer qubits");
    LEQA_REQUIRE(b.num_qubits() <= 16, "max_unitary_difference_with_ancilla: too many qubits");
    const std::size_t data_qubits = a.num_qubits();
    const std::uint64_t data_dim = 1ULL << data_qubits;

    double max_diff = 0.0;
    for (std::uint64_t basis = 0; basis < data_dim; ++basis) {
        StateVector sa = StateVector::basis(data_qubits, basis);
        StateVector sb = StateVector::basis(b.num_qubits(), basis); // ancillas |0>
        sa.run(a);
        sb.run(b);
        // Check ancillas returned to |0>: all amplitude mass must lie in
        // indices whose high bits are zero.
        for (std::uint64_t index = 0; index < sb.dimension(); ++index) {
            const bool ancilla_zero = (index >> data_qubits) == 0;
            const double magnitude = std::abs(sb.amplitude(index));
            if (!ancilla_zero && magnitude > ancilla_tolerance) {
                throw util::InternalError(
                    "ancilla qubits not restored to |0> (residual amplitude " +
                    std::to_string(magnitude) + ")");
            }
            if (ancilla_zero) {
                max_diff = std::max(max_diff,
                                    std::abs(sb.amplitude(index) - sa.amplitude(index)));
            }
        }
    }
    return max_diff;
}

} // namespace leqa::sim
