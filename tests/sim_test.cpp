// Unit tests for the simulators: classical reversible bit-sim and the dense
// statevector verifier.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "sim/classical.h"
#include "sim/statevector.h"
#include "util/error.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace ls = leqa::sim;

// -------------------------------------------------------------- classical --

TEST(BasisState, IntegerRoundTrip) {
    auto state = ls::BasisState::from_integer(8, 0b10110010);
    EXPECT_EQ(state.to_integer(), 0b10110010u);
    EXPECT_TRUE(state.get(1));
    EXPECT_FALSE(state.get(0));
    state.flip(0);
    EXPECT_EQ(state.to_integer(), 0b10110011u);
}

TEST(BasisState, SliceAccess) {
    ls::BasisState state(12);
    state.set_slice(4, 4, 0b1010);
    EXPECT_EQ(state.slice(4, 4), 0b1010u);
    EXPECT_EQ(state.slice(0, 4), 0u);
    EXPECT_EQ(state.to_integer(), 0b1010u << 4);
    EXPECT_THROW((void)state.slice(10, 4), leqa::util::InputError);
    EXPECT_THROW(state.set_slice(0, 2, 5), leqa::util::InputError);
}

TEST(BasisState, ToStringQubitZeroFirst) {
    const auto state = ls::BasisState::from_integer(4, 0b0001);
    EXPECT_EQ(state.to_string(), "1000");
}

TEST(ClassicalSim, GateSemantics) {
    // X
    EXPECT_EQ(ls::run_classical(lc::Circuit(1).x(0), 0b0u), 0b1u);
    // CNOT fires only when control set.
    lc::Circuit cnot(2);
    cnot.cnot(0, 1);
    EXPECT_EQ(ls::run_classical(cnot, 0b00u), 0b00u);
    EXPECT_EQ(ls::run_classical(cnot, 0b01u), 0b11u);
    EXPECT_EQ(ls::run_classical(cnot, 0b10u), 0b10u);
    // Toffoli fires only when both controls set.
    lc::Circuit tof(3);
    tof.toffoli(0, 1, 2);
    EXPECT_EQ(ls::run_classical(tof, 0b011u), 0b111u);
    EXPECT_EQ(ls::run_classical(tof, 0b001u), 0b001u);
    // Fredkin swaps targets when control set.
    lc::Circuit fred(3);
    fred.fredkin(0, 1, 2);
    EXPECT_EQ(ls::run_classical(fred, 0b011u), 0b101u);
    EXPECT_EQ(ls::run_classical(fred, 0b010u), 0b010u);
    // SWAP always swaps.
    lc::Circuit swp(2);
    swp.swap(0, 1);
    EXPECT_EQ(ls::run_classical(swp, 0b01u), 0b10u);
}

TEST(ClassicalSim, MultiControlled) {
    lc::Circuit circ(5);
    circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 4));
    EXPECT_EQ(ls::run_classical(circ, 0b01111u), 0b11111u);
    EXPECT_EQ(ls::run_classical(circ, 0b00111u), 0b00111u);
}

TEST(ClassicalSim, RejectsNonClassicalGate) {
    lc::Circuit circ(1);
    circ.h(0);
    ls::BasisState state(1);
    EXPECT_THROW(ls::run_classical(circ, state), leqa::util::InputError);
}

TEST(ClassicalSim, CircuitsArePermutations) {
    // Property: every classical reversible circuit permutes basis states.
    leqa::util::Rng rng(77);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 4 + rng.index(3);
        lc::Circuit circ(n);
        for (int g = 0; g < 30; ++g) {
            const auto picks = rng.sample_without_replacement(n, 3);
            switch (rng.index(4)) {
                case 0: circ.x(static_cast<lc::Qubit>(picks[0])); break;
                case 1:
                    circ.cnot(static_cast<lc::Qubit>(picks[0]),
                              static_cast<lc::Qubit>(picks[1]));
                    break;
                case 2:
                    circ.toffoli(static_cast<lc::Qubit>(picks[0]),
                                 static_cast<lc::Qubit>(picks[1]),
                                 static_cast<lc::Qubit>(picks[2]));
                    break;
                default:
                    circ.fredkin(static_cast<lc::Qubit>(picks[0]),
                                 static_cast<lc::Qubit>(picks[1]),
                                 static_cast<lc::Qubit>(picks[2]));
                    break;
            }
        }
        const auto table = ls::truth_table(circ);
        std::vector<bool> seen(table.size(), false);
        for (const auto image : table) {
            ASSERT_LT(image, table.size());
            EXPECT_FALSE(seen[image]) << "not injective";
            seen[image] = true;
        }
    }
}

TEST(ClassicalSim, SelfInverseCircuits) {
    // Running a circuit then its mirror restores the input (all classical
    // gates here are self-inverse).
    leqa::util::Rng rng(99);
    lc::Circuit circ(6);
    for (int g = 0; g < 40; ++g) {
        const auto picks = rng.sample_without_replacement(6, 3);
        circ.toffoli(static_cast<lc::Qubit>(picks[0]), static_cast<lc::Qubit>(picks[1]),
                     static_cast<lc::Qubit>(picks[2]));
    }
    lc::Circuit mirrored(6);
    for (auto it = circ.gates().rbegin(); it != circ.gates().rend(); ++it) {
        mirrored.add_gate(*it);
    }
    for (int trial = 0; trial < 20; ++trial) {
        const std::uint64_t input = rng.next() & 0x3F;
        const auto mid = ls::run_classical(circ, input);
        EXPECT_EQ(ls::run_classical(mirrored, mid), input);
    }
}

// ------------------------------------------------------------ statevector --

namespace {
constexpr double kTol = 1e-12;
}

TEST(StateVector, InitialState) {
    ls::StateVector sv(3);
    EXPECT_EQ(sv.dimension(), 8u);
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, kTol);
    EXPECT_NEAR(sv.norm(), 1.0, kTol);
}

TEST(StateVector, HadamardCreatesSuperposition) {
    ls::StateVector sv(1);
    sv.apply(lc::make_h(0));
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0 / std::numbers::sqrt2, kTol);
    EXPECT_NEAR(std::abs(sv.amplitude(1)), 1.0 / std::numbers::sqrt2, kTol);
    // H is self-inverse.
    sv.apply(lc::make_h(0));
    EXPECT_NEAR(std::abs(sv.amplitude(0)), 1.0, kTol);
}

TEST(StateVector, PhaseGateAlgebra) {
    // T^2 = S, S^2 = Z, T * Tdg = I.
    ls::StateVector a = ls::StateVector::basis(1, 1);
    a.apply(lc::make_t(0));
    a.apply(lc::make_t(0));
    ls::StateVector b = ls::StateVector::basis(1, 1);
    b.apply(lc::make_s(0));
    EXPECT_NEAR(a.max_difference(b), 0.0, kTol);

    ls::StateVector c = ls::StateVector::basis(1, 1);
    c.apply(lc::make_s(0));
    c.apply(lc::make_s(0));
    ls::StateVector d = ls::StateVector::basis(1, 1);
    d.apply(lc::make_z(0));
    EXPECT_NEAR(c.max_difference(d), 0.0, kTol);

    ls::StateVector e = ls::StateVector::basis(1, 1);
    e.apply(lc::make_t(0));
    e.apply(lc::make_tdg(0));
    EXPECT_NEAR(std::abs(e.amplitude(1) - ls::Amplitude{1.0, 0.0}), 0.0, kTol);
}

TEST(StateVector, PauliAlgebra) {
    // Y = i X Z on |0>/|1> up to the global phase the equality encodes;
    // check XZ|psi> equals -iY|psi> amplitude-wise via max_difference of
    // the physically equal states (fidelity check).
    ls::StateVector x = ls::StateVector::basis(1, 0);
    x.apply(lc::make_z(0));
    x.apply(lc::make_x(0));
    ls::StateVector y = ls::StateVector::basis(1, 0);
    y.apply(lc::make_y(0));
    EXPECT_NEAR(x.fidelity(y), 1.0, kTol);
}

TEST(StateVector, CnotAndToffoliMatchClassicalOnBasis) {
    leqa::util::Rng rng(5);
    lc::Circuit circ(4);
    circ.x(0).cnot(0, 1).toffoli(0, 1, 2).fredkin(2, 0, 3).swap(1, 2);
    for (std::uint64_t basis = 0; basis < 16; ++basis) {
        ls::StateVector sv = ls::StateVector::basis(4, basis);
        sv.run(circ);
        const auto expected = ls::run_classical(circ, basis);
        EXPECT_NEAR(std::abs(sv.amplitude(expected)), 1.0, kTol);
    }
}

TEST(StateVector, NormPreservedByRandomFtCircuit) {
    leqa::util::Rng rng(31);
    lc::Circuit circ(5);
    for (int g = 0; g < 60; ++g) {
        const auto picks = rng.sample_without_replacement(5, 2);
        switch (rng.index(5)) {
            case 0: circ.h(static_cast<lc::Qubit>(picks[0])); break;
            case 1: circ.t(static_cast<lc::Qubit>(picks[0])); break;
            case 2: circ.sdg(static_cast<lc::Qubit>(picks[0])); break;
            case 3: circ.y(static_cast<lc::Qubit>(picks[0])); break;
            default:
                circ.cnot(static_cast<lc::Qubit>(picks[0]),
                          static_cast<lc::Qubit>(picks[1]));
                break;
        }
    }
    ls::StateVector sv(5);
    sv.run(circ);
    EXPECT_NEAR(sv.norm(), 1.0, 1e-9);
}

TEST(StateVector, MaxUnitaryDifferenceDetectsInequality) {
    lc::Circuit a(2);
    a.cnot(0, 1);
    lc::Circuit b(2);
    b.cnot(1, 0);
    EXPECT_GT(ls::max_unitary_difference(a, b), 0.5);
    EXPECT_NEAR(ls::max_unitary_difference(a, a), 0.0, kTol);
}

TEST(StateVector, AncillaComparisonRejectsDirtyAncilla) {
    // A circuit that leaves the ancilla entangled must be rejected.
    lc::Circuit spec(1);
    spec.x(0);
    lc::Circuit dirty(2);
    dirty.x(0);
    dirty.cnot(0, 1); // ancilla now correlated with the data qubit
    EXPECT_THROW((void)ls::max_unitary_difference_with_ancilla(spec, dirty),
                 leqa::util::InternalError);
}

TEST(StateVector, AncillaComparisonAcceptsCleanExpansion) {
    lc::Circuit spec(2);
    spec.cnot(0, 1);
    lc::Circuit clean(3);
    clean.cnot(0, 2); // copy into ancilla
    clean.cnot(2, 1); // use it
    clean.cnot(0, 2); // uncompute
    EXPECT_NEAR(ls::max_unitary_difference_with_ancilla(spec, clean), 0.0, kTol);
}

TEST(StateVector, BasisOutOfRangeThrows) {
    EXPECT_THROW((void)ls::StateVector::basis(2, 4), leqa::util::InputError);
    EXPECT_THROW(ls::StateVector(30), leqa::util::InputError);
}
