#include "benchgen/adders.h"

#include "util/error.h"

namespace leqa::benchgen {

namespace {

struct AdderWires {
    circuit::Qubit a;
    circuit::Qubit b;
    circuit::Qubit c;      ///< carry into this position
    circuit::Qubit c_next; ///< carry out (unused at the top position)
    bool has_c_next;
};

/// CARRY(c_in, a, b, c_out): c_out ^= maj-style carry, b ^= a.
void emit_carry(circuit::Circuit& circ, const AdderWires& w) {
    circ.toffoli(w.a, w.b, w.c_next);
    circ.cnot(w.a, w.b);
    circ.toffoli(w.c, w.b, w.c_next);
}

/// Inverse of emit_carry.
void emit_carry_inverse(circuit::Circuit& circ, const AdderWires& w) {
    circ.toffoli(w.c, w.b, w.c_next);
    circ.cnot(w.a, w.b);
    circ.toffoli(w.a, w.b, w.c_next);
}

/// SUM(c_in, a, b): b ^= a ^ c_in.
void emit_sum(circuit::Circuit& circ, const AdderWires& w) {
    circ.cnot(w.a, w.b);
    circ.cnot(w.c, w.b);
}

} // namespace

circuit::Circuit vbe_adder(int n) {
    LEQA_REQUIRE(n >= 1, "adder width must be >= 1");
    circuit::Circuit circ(0, std::to_string(n) + "bitadder");
    for (int i = 0; i < n; ++i) circ.add_qubit("a" + std::to_string(i));
    for (int i = 0; i < n; ++i) circ.add_qubit("b" + std::to_string(i));
    for (int i = 0; i < n; ++i) circ.add_qubit("c" + std::to_string(i));
    circ.add_comment("generator: vbe_adder n=" + std::to_string(n));
    circ.add_comment("function: b <- (a + b) mod 2^" + std::to_string(n) +
                     "; carries restored to 0");
    circ.reserve_gates(vbe_adder_counts(n).total());

    const auto wires = [&](int i) {
        AdderWires w;
        w.a = static_cast<circuit::Qubit>(i);
        w.b = static_cast<circuit::Qubit>(n + i);
        w.c = static_cast<circuit::Qubit>(2 * n + i);
        w.has_c_next = i + 1 < n;
        w.c_next = w.has_c_next ? static_cast<circuit::Qubit>(2 * n + i + 1) : 0;
        return w;
    };

    // Forward carry sweep (positions 0..n-2 produce carry-out).
    for (int i = 0; i + 1 < n; ++i) emit_carry(circ, wires(i));
    // Top position: plain sum with the incoming carry (mod-2^n drop-out).
    emit_sum(circ, wires(n - 1));
    // Downward sweep: undo carries, emit sums.
    for (int i = n - 2; i >= 0; --i) {
        emit_carry_inverse(circ, wires(i));
        emit_sum(circ, wires(i));
    }

    LEQA_CHECK(circ.size() == vbe_adder_counts(n).total(), "adder gate count mismatch");
    return circ;
}

AdderCounts vbe_adder_counts(int n) {
    AdderCounts counts;
    if (n <= 0) return counts;
    // forward: (n-1) * (2 Tof + 1 CNOT); top sum: 2 CNOT;
    // downward: (n-1) * (2 Tof + 1 CNOT + 2 CNOT).
    counts.toffolis = 4 * static_cast<std::size_t>(n - 1);
    counts.cnots = static_cast<std::size_t>(n - 1) * 4 + 2;
    return counts;
}

} // namespace leqa::benchgen
