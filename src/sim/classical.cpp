#include "sim/classical.h"

#include <string>

#include "util/error.h"

namespace leqa::sim {

BasisState::BasisState(std::size_t num_qubits) : bits_(num_qubits, false) {}

BasisState BasisState::from_integer(std::size_t num_qubits, std::uint64_t value) {
    LEQA_REQUIRE(num_qubits >= 64 || value < (1ULL << num_qubits),
                 "from_integer: value does not fit in register");
    BasisState state(num_qubits);
    for (std::size_t i = 0; i < num_qubits && i < 64; ++i) {
        state.bits_[i] = ((value >> i) & 1ULL) != 0;
    }
    return state;
}

bool BasisState::get(circuit::Qubit q) const {
    LEQA_REQUIRE(q < bits_.size(), "qubit index out of range");
    return bits_[q];
}

void BasisState::set(circuit::Qubit q, bool value) {
    LEQA_REQUIRE(q < bits_.size(), "qubit index out of range");
    bits_[q] = value;
}

void BasisState::flip(circuit::Qubit q) {
    LEQA_REQUIRE(q < bits_.size(), "qubit index out of range");
    bits_[q] = !bits_[q];
}

std::uint64_t BasisState::to_integer() const {
    LEQA_REQUIRE(bits_.size() <= 64, "register too wide for to_integer");
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < bits_.size(); ++i) {
        if (bits_[i]) value |= (1ULL << i);
    }
    return value;
}

std::uint64_t BasisState::slice(circuit::Qubit first, std::size_t width) const {
    LEQA_REQUIRE(width <= 64, "slice too wide");
    LEQA_REQUIRE(first + width <= bits_.size(), "slice out of range");
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < width; ++i) {
        if (bits_[first + i]) value |= (1ULL << i);
    }
    return value;
}

void BasisState::set_slice(circuit::Qubit first, std::size_t width, std::uint64_t value) {
    LEQA_REQUIRE(width <= 64, "slice too wide");
    LEQA_REQUIRE(first + width <= bits_.size(), "slice out of range");
    LEQA_REQUIRE(width >= 64 || value < (1ULL << width), "value does not fit in slice");
    for (std::size_t i = 0; i < width; ++i) {
        bits_[first + i] = ((value >> i) & 1ULL) != 0;
    }
}

std::string BasisState::to_string() const {
    std::string out;
    out.reserve(bits_.size());
    for (const bool b : bits_) out += b ? '1' : '0';
    return out;
}

void apply_classical_gate(const circuit::Gate& gate, BasisState& state) {
    LEQA_REQUIRE(circuit::gate_info(gate.kind).is_classical,
                 "apply_classical_gate: non-classical gate " + gate.to_string());
    bool controls_active = true;
    for (const circuit::Qubit c : gate.controls()) {
        if (!state.get(c)) {
            controls_active = false;
            break;
        }
    }
    if (!controls_active) return;

    switch (gate.kind) {
        case circuit::GateKind::X:
        case circuit::GateKind::Cnot:
        case circuit::GateKind::Toffoli:
            state.flip(gate.targets()[0]);
            break;
        case circuit::GateKind::Swap:
        case circuit::GateKind::Fredkin: {
            const bool a = state.get(gate.targets()[0]);
            const bool b = state.get(gate.targets()[1]);
            state.set(gate.targets()[0], b);
            state.set(gate.targets()[1], a);
            break;
        }
        default:
            throw util::InternalError("unhandled classical gate kind");
    }
}

void run_classical(const circuit::Circuit& circ, BasisState& state) {
    LEQA_REQUIRE(state.num_qubits() == circ.num_qubits(),
                 "run_classical: state width does not match circuit");
    for (const circuit::Gate& g : circ.gates()) {
        apply_classical_gate(g, state);
    }
}

std::uint64_t run_classical(const circuit::Circuit& circ, std::uint64_t input) {
    BasisState state = BasisState::from_integer(circ.num_qubits(), input);
    run_classical(circ, state);
    return state.to_integer();
}

std::vector<std::uint64_t> truth_table(const circuit::Circuit& circ) {
    LEQA_REQUIRE(circ.num_qubits() <= 20, "truth_table: too many qubits");
    const std::uint64_t size = 1ULL << circ.num_qubits();
    std::vector<std::uint64_t> table(size);
    for (std::uint64_t value = 0; value < size; ++value) {
        table[value] = run_classical(circ, value);
    }
    return table;
}

} // namespace leqa::sim
