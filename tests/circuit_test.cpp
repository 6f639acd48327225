// Unit tests for the circuit module: gates, metadata, container.
#include <gtest/gtest.h>

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.h"
#include "qodg/qodg.h"
#include "util/error.h"

namespace lc = leqa::circuit;
using leqa::util::InputError;

// ------------------------------------------------------------------- gate --

TEST(GateInfo, NamesRoundTrip) {
    for (std::size_t i = 0; i < lc::kGateKindCount; ++i) {
        const auto kind = static_cast<lc::GateKind>(i);
        EXPECT_EQ(lc::parse_gate_name(lc::gate_name(kind)), kind);
    }
}

TEST(GateInfo, Aliases) {
    EXPECT_EQ(lc::parse_gate_name("NOT"), lc::GateKind::X);
    EXPECT_EQ(lc::parse_gate_name("cx"), lc::GateKind::Cnot);
    EXPECT_EQ(lc::parse_gate_name("CCX"), lc::GateKind::Toffoli);
    EXPECT_EQ(lc::parse_gate_name("cswap"), lc::GateKind::Fredkin);
    EXPECT_THROW((void)lc::parse_gate_name("bogus"), InputError);
    EXPECT_EQ(lc::find_gate_name("tdg"), lc::GateKind::Tdg);
    EXPECT_EQ(lc::find_gate_name("TDAG"), lc::GateKind::Tdg);
    EXPECT_FALSE(lc::find_gate_name("qubit").has_value());
    EXPECT_FALSE(lc::find_gate_name("").has_value());
    EXPECT_FALSE(lc::find_gate_name("toffolix").has_value());
}

TEST(GateInfo, FtMembership) {
    EXPECT_TRUE(lc::gate_info(lc::GateKind::Cnot).is_ft);
    EXPECT_TRUE(lc::gate_info(lc::GateKind::T).is_ft);
    EXPECT_FALSE(lc::gate_info(lc::GateKind::Toffoli).is_ft);
    EXPECT_FALSE(lc::gate_info(lc::GateKind::Swap).is_ft);
}

TEST(GateInfo, ClassicalMembership) {
    EXPECT_TRUE(lc::gate_info(lc::GateKind::X).is_classical);
    EXPECT_TRUE(lc::gate_info(lc::GateKind::Toffoli).is_classical);
    EXPECT_TRUE(lc::gate_info(lc::GateKind::Fredkin).is_classical);
    EXPECT_FALSE(lc::gate_info(lc::GateKind::H).is_classical);
    EXPECT_FALSE(lc::gate_info(lc::GateKind::T).is_classical);
}

TEST(Gate, ValidationCatchesDuplicates) {
    EXPECT_THROW(lc::make_cnot(1, 1).validate(), InputError);
    EXPECT_THROW(lc::make_toffoli(0, 0, 2).validate(), InputError);
    EXPECT_THROW(lc::make_fredkin(2, 2, 1).validate(), InputError);
    EXPECT_NO_THROW(lc::make_toffoli(0, 1, 2).validate());
}

TEST(Gate, ValidationCatchesArity) {
    const std::vector<lc::Qubit> two{0, 1};
    const std::vector<lc::Qubit> one{2};
    lc::Gate bad(lc::GateKind::Cnot, two, one); // two controls on CNOT
    EXPECT_THROW(bad.validate(), InputError);
    lc::Gate no_target(lc::GateKind::H, {}, {});
    EXPECT_THROW(no_target.validate(), InputError);
    lc::Gate no_controls(lc::GateKind::Toffoli, {}, one);
    EXPECT_THROW(no_controls.validate(), InputError);
}

TEST(Gate, RangeValidation) {
    EXPECT_THROW(lc::make_cnot(0, 5).validate_against(3), InputError);
    EXPECT_NO_THROW(lc::make_cnot(0, 2).validate_against(3));
}

TEST(Gate, QubitsAndArity) {
    const auto gate = lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2}, 3);
    EXPECT_EQ(gate.arity(), 4u);
    EXPECT_EQ(std::vector<lc::Qubit>(gate.qubits().begin(), gate.qubits().end()),
              (std::vector<lc::Qubit>{0, 1, 2, 3}));
    EXPECT_FALSE(gate.is_two_qubit());
    EXPECT_TRUE(lc::make_cnot(0, 1).is_two_qubit());
}

namespace {
std::vector<lc::Qubit> as_vector(std::span<const lc::Qubit> qubits) {
    return {qubits.begin(), qubits.end()};
}
} // namespace

TEST(Gate, RecordStaysCompact) {
    EXPECT_LE(sizeof(lc::Gate), 40u);
}

TEST(Gate, OperandSpansInlineAndSpilled) {
    const lc::Gate tof = lc::make_toffoli(4, 5, 6); // inline: 3 operands
    EXPECT_EQ(as_vector(tof.controls()), (std::vector<lc::Qubit>{4, 5}));
    EXPECT_EQ(as_vector(tof.targets()), (std::vector<lc::Qubit>{6}));
    EXPECT_EQ(as_vector(tof.qubits()), (std::vector<lc::Qubit>{4, 5, 6}));

    const lc::Gate mcx = lc::make_mcx(std::vector<lc::Qubit>{9, 1, 7, 3, 5}, 2); // spilled
    EXPECT_EQ(mcx.kind, lc::GateKind::Toffoli);
    EXPECT_EQ(mcx.arity(), 6u);
    EXPECT_EQ(as_vector(mcx.controls()), (std::vector<lc::Qubit>{9, 1, 7, 3, 5}));
    EXPECT_EQ(as_vector(mcx.targets()), (std::vector<lc::Qubit>{2}));
    EXPECT_EQ(as_vector(mcx.qubits()), (std::vector<lc::Qubit>{9, 1, 7, 3, 5, 2}));

    const lc::Gate mcswap = lc::make_mcswap(std::vector<lc::Qubit>{0, 1, 2}, 3, 4);
    EXPECT_EQ(mcswap.kind, lc::GateKind::Fredkin);
    EXPECT_EQ(as_vector(mcswap.controls()), (std::vector<lc::Qubit>{0, 1, 2}));
    EXPECT_EQ(as_vector(mcswap.targets()), (std::vector<lc::Qubit>{3, 4}));
    EXPECT_NO_THROW(mcx.validate_against(10));
    EXPECT_NO_THROW(mcswap.validate_against(5));
}

TEST(Gate, CopyMoveAndEqualityForWideGates) {
    for (const lc::Gate& original :
         {lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3, 4}, 5),
          lc::make_mcswap(std::vector<lc::Qubit>{0, 1, 2}, 3, 4), lc::make_cnot(0, 1)}) {
        lc::Gate copy = original;
        EXPECT_EQ(copy, original);
        EXPECT_EQ(as_vector(copy.qubits()), as_vector(original.qubits()));

        lc::Gate moved = std::move(copy);
        EXPECT_EQ(moved, original);
        EXPECT_EQ(as_vector(moved.controls()), as_vector(original.controls()));
        EXPECT_EQ(as_vector(moved.targets()), as_vector(original.targets()));

        lc::Gate assigned;
        assigned = moved;
        EXPECT_EQ(assigned, original);
        lc::Gate move_assigned;
        move_assigned = std::move(assigned);
        EXPECT_EQ(move_assigned, original);
    }
    // Same operands, split differently, or in another order: not equal.
    EXPECT_NE(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3, 4}, 5),
              lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3, 5}, 4));
    EXPECT_NE(lc::make_mcswap(std::vector<lc::Qubit>{0, 1, 2}, 3, 4),
              lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 4));
    EXPECT_NE(lc::make_cnot(0, 1), lc::make_cnot(1, 0));
}

TEST(Gate, DuplicateAndRangeChecksInlineAndSpilled) {
    EXPECT_THROW(lc::make_swap(3, 3).validate(), InputError);
    EXPECT_THROW(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 1}, 5).validate(), InputError);
    EXPECT_THROW(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 0).validate(), InputError);
    EXPECT_THROW(lc::make_mcswap(std::vector<lc::Qubit>{0, 1, 2}, 4, 4).validate(), InputError);
    std::vector<lc::Qubit> wide(40);
    for (std::size_t i = 0; i < wide.size(); ++i) wide[i] = static_cast<lc::Qubit>(i);
    EXPECT_NO_THROW(lc::make_mcx(wide, 40).validate_against(41));
    EXPECT_THROW(lc::make_mcx(wide, 7).validate(), InputError); // sorted-copy path

    EXPECT_THROW(lc::make_toffoli(0, 1, 3).validate_against(3), InputError);
    EXPECT_THROW(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 9).validate_against(9),
                 InputError);
    EXPECT_THROW(lc::make_mcswap(std::vector<lc::Qubit>{7, 1, 2}, 3, 4).validate_against(5),
                 InputError);
    lc::Circuit circ(5);
    EXPECT_THROW(circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 5)),
                 InputError);
    EXPECT_TRUE(circ.empty());
}

namespace {

/// what() of the InputError \p body throws, or "" if it throws none.
template <class Body>
std::string message_of(Body&& body) {
    try {
        body();
    } catch (const InputError& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(Gate, MessagesThroughBothOutputs) {
    // Each gate fails the first check in order (counts, duplicates, range)
    // with the same message from validate_against, Circuit::add_gate and
    // the QODG's tape, and neither output keeps it.
    struct Case {
        lc::Gate gate;
        std::size_t num_qubits;
        std::string message;
    };
    const std::vector<lc::Qubit> none;
    const std::vector<lc::Qubit> one{0};
    const std::vector<lc::Qubit> two{0, 1};
    const std::vector<lc::Qubit> three{0, 1, 2};
    const std::vector<lc::Qubit> last{3};
    const std::vector<Case> cases{
        {lc::Gate(lc::GateKind::Toffoli, none, last), 4, "toffoli: too few controls"},
        {lc::Gate(lc::GateKind::Cnot, two, last), 4, "cnot: too many controls"},
        {lc::Gate(lc::GateKind::H, one, last), 4, "h: too many controls"},
        {lc::Gate(lc::GateKind::H, none, none), 4, "h: wrong number of targets"},
        {lc::Gate(lc::GateKind::Swap, none, one), 4, "swap: wrong number of targets"},
        {lc::Gate(lc::GateKind::Fredkin, three, last), 4, "fredkin: wrong number of targets"},
        {lc::Gate(lc::GateKind::Cnot, two, two), 9, "cnot: too many controls"},
        {lc::make_cnot(1, 1), 4, "cnot: duplicate qubit operand"},
        {lc::make_cnot(7, 7), 4, "cnot: duplicate qubit operand"},
        {lc::make_toffoli(0, 2, 2), 4, "toffoli: duplicate qubit operand"},
        {lc::make_swap(3, 3), 4, "swap: duplicate qubit operand"},
        {lc::make_fredkin(2, 1, 2), 4, "fredkin: duplicate qubit operand"},
        {lc::make_mcx(three, 1), 4, "toffoli: duplicate qubit operand"},
        {lc::make_cnot(0, 5), 3, "qubit index 5 out of range (circuit has 3 qubits)"},
        {lc::make_h(3), 3, "qubit index 3 out of range (circuit has 3 qubits)"},
        {lc::make_toffoli(4, 1, 9), 3, "qubit index 4 out of range (circuit has 3 qubits)"},
        {lc::make_mcx(three, 7), 4, "qubit index 7 out of range (circuit has 4 qubits)"},
        {lc::make_mcswap(two, 6, 5), 5, "qubit index 6 out of range (circuit has 5 qubits)"},
        {lc::make_x(0), 0, "qubit index 0 out of range (circuit has 0 qubits)"},
    };
    for (const Case& c : cases) {
        const std::string expected = "requirement failed: " + c.message;
        const std::string what = c.gate.to_string();
        EXPECT_EQ(message_of([&] { c.gate.validate_against(c.num_qubits); }), expected) << what;
        lc::Circuit circ(c.num_qubits);
        EXPECT_EQ(message_of([&] { circ.add_gate(c.gate); }), expected) << what;
        EXPECT_TRUE(circ.empty()) << what;
        leqa::qodg::Qodg::Builder tape;
        for (std::size_t q = 0; q < c.num_qubits; ++q) (void)tape.add_qubit();
        EXPECT_EQ(message_of([&] { tape.add_gate(c.gate); }), expected) << what;
        EXPECT_EQ(tape.size(), 0u) << what;
    }
    // validate() runs the same checks, less the range.
    EXPECT_EQ(message_of([&] { lc::make_mcx(three, 1).validate(); }),
              "requirement failed: toffoli: duplicate qubit operand");
    EXPECT_EQ(message_of([&] { lc::make_toffoli(0, 1, 9).validate(); }), "");

    // Valid inline and spilled gates pass through both outputs.
    lc::Circuit circ(6);
    leqa::qodg::Qodg::Builder tape;
    for (std::size_t q = 0; q < 6; ++q) (void)tape.add_qubit();
    for (const lc::Gate& gate : {lc::make_h(5), lc::make_cnot(5, 0), lc::make_toffoli(0, 1, 2),
                                 lc::make_mcx(three, 5), lc::make_mcswap(two, 4, 5)}) {
        EXPECT_EQ(message_of([&] { circ.add_gate(gate); }), "") << gate.to_string();
        EXPECT_EQ(message_of([&] { tape.add_gate(gate); }), "") << gate.to_string();
    }
    EXPECT_EQ(circ.size(), 5u);
    EXPECT_EQ(tape.size(), 5u);
}

TEST(Circuit, FindQubitByView) {
    lc::Circuit circ;
    circ.add_qubit("alpha");
    circ.add_qubit("b0");
    const std::string line = "cnot alpha,b0";
    EXPECT_EQ(circ.find_qubit(std::string_view(line).substr(5, 5)), 0u);
    EXPECT_EQ(circ.find_qubit(std::string_view(line).substr(11)), 1u);
    EXPECT_FALSE(circ.find_qubit("alph").has_value());
    EXPECT_FALSE(circ.find_qubit("").has_value());
}

TEST(QubitIndex, FindsEveryNameAcrossRehashes) {
    // Names that differ only in their last bytes, as netlist names do, and
    // enough of them to grow the table several times.
    lc::QubitIndex index;
    std::vector<std::string> names;
    for (const char* prefix : {"a", "b", "anc", "q"}) {
        for (int i = 0; i < 2500; ++i) names.push_back(prefix + std::to_string(i));
    }
    for (const std::string& name : names) EXPECT_TRUE(index.add(name)) << name;
    ASSERT_EQ(index.size(), names.size());
    for (lc::Qubit q = 0; q < names.size(); ++q) {
        EXPECT_EQ(index.find(names[q]), q) << names[q];
        EXPECT_EQ(index.name(q), names[q]);
    }
    EXPECT_FALSE(index.add("anc17"));
    EXPECT_EQ(index.size(), names.size());
    EXPECT_FALSE(index.find("anc").has_value());
    EXPECT_FALSE(index.find("anc25000").has_value());
    EXPECT_FALSE(index.find("").has_value());
    EXPECT_FALSE(lc::QubitIndex().find("a0").has_value());
}

TEST(Circuit, DuplicateQubitNameNamesIt) {
    const auto message_of = [](lc::Circuit& circ, std::string_view name) {
        try {
            (void)circ.add_qubit(name);
        } catch (const InputError& e) {
            return std::string(e.what());
        }
        return std::string("(added)");
    };
    lc::Circuit circ;
    circ.add_qubit("q1");
    circ.add_qubit("alpha");
    EXPECT_EQ(message_of(circ, "alpha"), "requirement failed: duplicate qubit name: alpha");
    EXPECT_EQ(message_of(circ, ""), "(added)"); // auto-named q2
    EXPECT_EQ(circ.num_qubits(), 3u);
    lc::Circuit clash;
    clash.add_qubit("q1");
    EXPECT_EQ(message_of(clash, ""), "requirement failed: duplicate qubit name: q1"); // auto q1
    EXPECT_EQ(clash.num_qubits(), 1u);
}

TEST(Gate, McxWithSingleControlIsCnot) {
    const auto gate = lc::make_mcx(std::vector<lc::Qubit>{4}, 2);
    EXPECT_EQ(gate.kind, lc::GateKind::Cnot);
}

TEST(Gate, ToStringIsReadable) {
    EXPECT_EQ(lc::make_toffoli(0, 1, 2).to_string(), "toffoli q0, q1 -> q2");
    EXPECT_EQ(lc::make_h(3).to_string(), "h q3");
}

// ---------------------------------------------------------------- circuit --

TEST(Circuit, QubitManagement) {
    lc::Circuit circ;
    EXPECT_EQ(circ.add_qubit("a"), 0u);
    EXPECT_EQ(circ.add_qubit(), 1u); // auto-named q1
    EXPECT_EQ(circ.qubit_name(0), "a");
    EXPECT_EQ(circ.qubit_name(1), "q1");
    EXPECT_EQ(circ.find_qubit("a"), 0u);
    EXPECT_EQ(circ.find_qubit("q1"), 1u);
    EXPECT_FALSE(circ.find_qubit("b").has_value());
    EXPECT_THROW((void)circ.add_qubit("a"), InputError);
}

TEST(Circuit, FluentBuildersAndCounts) {
    lc::Circuit circ(4, "demo");
    circ.h(0).t(1).tdg(2).cnot(0, 1).toffoli(0, 1, 2).x(3).cnot(2, 3);
    EXPECT_EQ(circ.size(), 7u);
    const auto counts = circ.counts();
    EXPECT_EQ(counts.of(lc::GateKind::H), 1u);
    EXPECT_EQ(counts.of(lc::GateKind::Cnot), 2u);
    EXPECT_EQ(counts.of(lc::GateKind::Toffoli), 1u);
    EXPECT_EQ(counts.total(), 7u);
    EXPECT_EQ(counts.one_qubit_ft(), 4u); // h, t, tdg, x
}

TEST(Circuit, OneQubitFtCountIncludesX) {
    lc::Circuit circ(1);
    circ.x(0).h(0).t(0);
    EXPECT_EQ(circ.counts().one_qubit_ft(), 3u);
}

TEST(Circuit, RejectsOutOfRangeGate) {
    lc::Circuit circ(2);
    EXPECT_THROW(circ.cnot(0, 2), InputError);
    EXPECT_THROW(circ.add_gate(lc::make_toffoli(0, 1, 5)), InputError);
}

TEST(Circuit, FtAndClassicalPredicates) {
    lc::Circuit ft(2);
    ft.h(0).cnot(0, 1).t(1);
    EXPECT_TRUE(ft.is_ft());
    EXPECT_FALSE(ft.is_classical());

    lc::Circuit classical(3);
    classical.x(0).cnot(0, 1).toffoli(0, 1, 2);
    EXPECT_TRUE(classical.is_classical());
    EXPECT_FALSE(classical.is_ft()); // toffoli is not FT

    lc::Circuit both(2);
    both.x(0).cnot(0, 1);
    EXPECT_TRUE(both.is_ft());
    EXPECT_TRUE(both.is_classical());
}

TEST(Circuit, UnusedQubits) {
    lc::Circuit circ(4);
    circ.cnot(0, 2);
    const auto unused = circ.unused_qubits();
    EXPECT_EQ(unused, (std::vector<lc::Qubit>{1, 3}));
}

TEST(Circuit, TwoQubitGateCountCountsArityNotKind) {
    lc::Circuit circ(3);
    circ.h(0).cnot(0, 1).toffoli(0, 1, 2).swap(1, 2);
    EXPECT_EQ(circ.two_qubit_gate_count(), 3u); // cnot, toffoli, swap
}

TEST(Circuit, AppendAndStructuralEquality) {
    lc::Circuit a(2);
    a.h(0).cnot(0, 1);
    lc::Circuit b(2);
    b.h(0);
    lc::Circuit tail(2);
    tail.cnot(0, 1);
    b.append(tail);
    EXPECT_TRUE(a.same_structure(b));

    lc::Circuit c(3);
    c.h(0).cnot(0, 1);
    EXPECT_FALSE(a.same_structure(c)); // differing qubit count

    lc::Circuit big(1);
    lc::Circuit wide(2);
    EXPECT_THROW(big.append(wide), InputError);
}

TEST(Circuit, MetadataSurvives) {
    lc::Circuit circ(1, "named");
    circ.add_comment("generator: test");
    EXPECT_EQ(circ.name(), "named");
    ASSERT_EQ(circ.comments().size(), 1u);
    EXPECT_EQ(circ.comments()[0], "generator: test");
}

TEST(GateCounts, ToStringListsNonZero) {
    lc::Circuit circ(2);
    circ.h(0).h(1).cnot(0, 1);
    const std::string text = circ.counts().to_string();
    EXPECT_NE(text.find("h=2"), std::string::npos);
    EXPECT_NE(text.find("cnot=1"), std::string::npos);
    EXPECT_EQ(text.find("tdg="), std::string::npos);
    EXPECT_EQ(text.find("toffoli="), std::string::npos);
}
