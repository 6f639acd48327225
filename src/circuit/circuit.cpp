#include "circuit/circuit.h"

#include <sstream>

#include "util/error.h"

namespace leqa::circuit {

std::size_t GateCounts::total() const {
    std::size_t sum = 0;
    for (const std::size_t n : by_kind) sum += n;
    return sum;
}

std::size_t GateCounts::one_qubit_ft() const {
    std::size_t sum = 0;
    for (const GateKind kind : {GateKind::X, GateKind::Y, GateKind::Z, GateKind::H,
                                GateKind::S, GateKind::Sdg, GateKind::T, GateKind::Tdg}) {
        sum += of(kind);
    }
    return sum;
}

std::string GateCounts::to_string() const {
    std::ostringstream out;
    bool first = true;
    for (std::size_t i = 0; i < kGateKindCount; ++i) {
        if (by_kind[i] == 0) continue;
        if (!first) out << ", ";
        out << gate_name(static_cast<GateKind>(i)) << "=" << by_kind[i];
        first = false;
    }
    if (first) out << "(empty)";
    return out.str();
}

Circuit::Circuit(std::size_t num_qubits, std::string name) : name_(std::move(name)) {
    for (std::size_t i = 0; i < num_qubits; ++i) add_qubit();
}

Qubit Circuit::add_qubit(std::string_view name) {
    const auto index = static_cast<Qubit>(qubits_.size());
    const std::string resolved = name.empty() ? "q" + std::to_string(index) : std::string(name);
    LEQA_REQUIRE(qubits_.add(resolved), "duplicate qubit name: " + resolved);
    return index;
}

const std::string& Circuit::qubit_name(Qubit q) const {
    LEQA_REQUIRE(q < qubits_.size(), "qubit index out of range");
    return qubits_.name(q);
}

void Circuit::add_gate(const Gate& gate) {
    gate.validate_against(num_qubits());
    gates_.push_back(gate);
}

Circuit& Circuit::x(Qubit q) { add_gate(make_x(q)); return *this; }
Circuit& Circuit::y(Qubit q) { add_gate(make_y(q)); return *this; }
Circuit& Circuit::z(Qubit q) { add_gate(make_z(q)); return *this; }
Circuit& Circuit::h(Qubit q) { add_gate(make_h(q)); return *this; }
Circuit& Circuit::s(Qubit q) { add_gate(make_s(q)); return *this; }
Circuit& Circuit::sdg(Qubit q) { add_gate(make_sdg(q)); return *this; }
Circuit& Circuit::t(Qubit q) { add_gate(make_t(q)); return *this; }
Circuit& Circuit::tdg(Qubit q) { add_gate(make_tdg(q)); return *this; }

Circuit& Circuit::cnot(Qubit control, Qubit target) {
    add_gate(make_cnot(control, target));
    return *this;
}

Circuit& Circuit::toffoli(Qubit c0, Qubit c1, Qubit target) {
    add_gate(make_toffoli(c0, c1, target));
    return *this;
}

Circuit& Circuit::mcx(std::span<const Qubit> controls, Qubit target) {
    add_gate(make_mcx(controls, target));
    return *this;
}

Circuit& Circuit::fredkin(Qubit control, Qubit a, Qubit b) {
    add_gate(make_fredkin(control, a, b));
    return *this;
}

Circuit& Circuit::swap(Qubit a, Qubit b) {
    add_gate(make_swap(a, b));
    return *this;
}

void Circuit::append(const Circuit& other) {
    LEQA_REQUIRE(other.num_qubits() <= num_qubits(),
                 "append: other circuit uses more qubits than this one");
    for (const Gate& g : other.gates_) add_gate(g);
}

GateCounts Circuit::counts() const {
    GateCounts counts;
    for (const Gate& g : gates_) {
        ++counts.by_kind[static_cast<std::size_t>(g.kind)];
    }
    return counts;
}

bool Circuit::is_ft() const {
    for (const Gate& g : gates_) {
        if (!g.is_ft()) return false;
    }
    return true;
}

bool Circuit::is_classical() const {
    for (const Gate& g : gates_) {
        if (!gate_info(g.kind).is_classical) return false;
    }
    return true;
}

std::vector<Qubit> Circuit::unused_qubits() const {
    std::vector<bool> used(num_qubits(), false);
    for (const Gate& g : gates_) {
        for (const Qubit q : g.qubits()) used[q] = true;
    }
    std::vector<Qubit> out;
    for (Qubit q = 0; q < used.size(); ++q) {
        if (!used[q]) out.push_back(q);
    }
    return out;
}

std::size_t Circuit::two_qubit_gate_count() const {
    std::size_t count = 0;
    for (const Gate& g : gates_) {
        if (g.arity() >= 2) ++count;
    }
    return count;
}

void Circuit::validate() const {
    for (const Gate& g : gates_) g.validate_against(num_qubits());
}

bool Circuit::same_structure(const Circuit& other) const {
    return num_qubits() == other.num_qubits() && gates_ == other.gates_;
}

} // namespace leqa::circuit
