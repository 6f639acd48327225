// Tests for the OpenQASM 2.0 subset parser/writer, format auto-detection,
// and deterministic fuzzing of all three parsers (malformed input must
// raise ParseError, never crash or accept).  Every text runs through both
// reader outputs, a circuit and the QODG's tape (two_outputs.h).
#include <gtest/gtest.h>

#include "parser/diagnostics.h"
#include "parser/io.h"
#include "parser/openqasm.h"
#include "parser/qasm.h"
#include "parser/real.h"
#include "two_outputs.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace lp = leqa::parser;
using two_outputs::expect_rejected;
using two_outputs::kOpenQasm;
using two_outputs::kQasm;
using two_outputs::kReal;
using two_outputs::read;
using two_outputs::read_both;

// --------------------------------------------------------------- openqasm --

TEST(OpenQasm, ParsesCanonicalProgram) {
    const std::string text = R"(// a Toffoli test
OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[2];
ccx q[0], q[1], q[2];
cx q[0],q[1];
t q[0];
tdg q[1];
swap q[1], q[2];
barrier q[0], q[1];
id q[0];
)";
    const auto circ = read(kOpenQasm, text);
    EXPECT_EQ(circ.num_qubits(), 3u);
    ASSERT_EQ(circ.size(), 6u); // barrier/id ignored
    EXPECT_EQ(circ.gate(0).kind, lc::GateKind::H);
    EXPECT_EQ(circ.gate(1).kind, lc::GateKind::Toffoli);
    EXPECT_EQ(circ.gate(2).kind, lc::GateKind::Cnot);
    EXPECT_EQ(circ.gate(5).kind, lc::GateKind::Swap);
    EXPECT_EQ(circ.qubit_name(0), "q[0]");
}

TEST(OpenQasm, MultipleRegisters) {
    const std::string text =
        "OPENQASM 2.0;\nqreg a[2];\nqreg b[2];\ncx a[1], b[0];\n";
    const auto circ = read(kOpenQasm, text);
    EXPECT_EQ(circ.num_qubits(), 4u);
    EXPECT_EQ(circ.gate(0).controls()[0], 1u);
    EXPECT_EQ(circ.gate(0).targets()[0], 2u);
}

TEST(OpenQasm, StatementsSpanLines) {
    const std::string text = "OPENQASM 2.0;\nqreg q[2];\ncx\n  q[0],\n  q[1];\n";
    const auto circ = read(kOpenQasm, text);
    ASSERT_EQ(circ.size(), 1u);
    EXPECT_EQ(circ.gate(0).kind, lc::GateKind::Cnot);
}

TEST(OpenQasm, Diagnostics) {
    expect_rejected(kOpenQasm, "qreg q[2];\n"); // no header
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[5];\n"); // out of range
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\ncx q[0], q[1];\n"); // unknown register
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\nqreg q[2];\nqreg q[2];\n"); // duplicate register
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\nqreg q[0];\n"); // empty register
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\nqreg q[2];\ncx q[0]"); // missing ';'
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\nqreg q[1];\nmeasure q[0];\n"); // unsupported
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\nqreg q[1];\nrx(0.5) q[0];\n"); // parameterized gate
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[0];\n"); // duplicate operand
    expect_rejected(kOpenQasm, "OPENQASM 2.0;\nqreg q[2];\nccx q[0], q[1];\n"); // arity
}

TEST(OpenQasm, ErrorsCarryLineNumbers) {
    const std::string text = "OPENQASM 2.0;\nqreg q[2];\n\nbogus q[0];\n";
    expect_rejected(kOpenQasm, text);
    try {
        (void)lp::parse_openqasm(text, "f.qasm");
        FAIL() << "expected ParseError";
    } catch (const lp::ParseError& e) {
        EXPECT_EQ(e.location().line, 4u);
    }
}

TEST(OpenQasm, WriterRoundTrip) {
    lc::Circuit circ(4, "rt");
    circ.h(0).cnot(0, 1).toffoli(1, 2, 3).tdg(3).fredkin(0, 2, 3).swap(1, 2).sdg(0);
    const std::string text = lp::write_openqasm(circ);
    EXPECT_TRUE(lp::looks_like_openqasm(text));
    const auto parsed = read(kOpenQasm, text);
    EXPECT_TRUE(circ.same_structure(parsed));
}

TEST(OpenQasm, WriterRejectsWideGates) {
    lc::Circuit circ(5);
    circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2, 3}, 4));
    EXPECT_THROW((void)lp::write_openqasm(circ), leqa::util::InputError);
}

TEST(OpenQasm, Detection) {
    EXPECT_TRUE(lp::looks_like_openqasm("// hi\nOPENQASM 2.0;\n"));
    EXPECT_TRUE(lp::looks_like_openqasm("  openqasm 2.0;\n"));
    EXPECT_FALSE(lp::looks_like_openqasm(".qubits 3\nh q0\n"));
    EXPECT_FALSE(lp::looks_like_openqasm(""));
}

TEST(OpenQasm, LoadNetlistAutoDetects) {
    lc::Circuit circ(2, "auto");
    circ.h(0).cnot(0, 1);
    const std::string path = ::testing::TempDir() + "/leqa_openqasm_auto.qasm";
    lp::write_file(path, lp::write_openqasm(circ));
    const auto loaded = lp::load_netlist(path);
    EXPECT_TRUE(circ.same_structure(loaded));
    std::remove(path.c_str());
}

// ------------------------------------------------------------------- fuzz --

namespace {

/// Deterministic garbage generator biased toward parser-relevant tokens.
std::string random_text(leqa::util::Rng& rng) {
    static const char* kTokens[] = {
        "OPENQASM 2.0", "qreg", "creg", "q[0]", "q[1]", "q[-1]", "q[",   "]",
        ";",            ",",    "cx",   "ccx",  "t3",   "t1",    "f3",   ".qubits",
        ".numvars",     ".begin", ".end", "qubit", "cnot", "toffoli", "h", "t",
        "\n",           " ",    "#",    "//",   "{",    "1e99",  "-3",   "xyz",
        "\t",           "q0",   "q1",   "a b c", "18446744073709551616",
    };
    std::string out;
    const std::size_t pieces = 1 + rng.index(40);
    for (std::size_t i = 0; i < pieces; ++i) {
        out += kTokens[rng.index(std::size(kTokens))];
        if (rng.chance(0.3)) out += ' ';
    }
    return out;
}

} // namespace

TEST(ParserFuzz, NoCrashOnGarbage) {
    // Every parser must either parse or raise ParseError/InputError --
    // never crash, hang, or throw anything else -- and its two outputs,
    // a circuit and the QODG's tape, must agree (read_both).
    leqa::util::Rng rng(0xFADED);
    for (int trial = 0; trial < 400; ++trial) {
        const std::string text = random_text(rng);
        for (const two_outputs::Reader* reader : {&kQasm, &kReal, &kOpenQasm}) {
            (void)read_both(*reader, text);
        }
    }
}

TEST(ParserFuzz, MutatedValidNetlistsNeverCrash) {
    // Take a valid netlist and apply random single-character mutations.
    lc::Circuit circ(4, "fuzzbase");
    circ.h(0).cnot(0, 1).toffoli(0, 1, 2).swap(2, 3).tdg(3);
    const std::string base = lp::write_qasm(circ);
    leqa::util::Rng rng(0xBEEF);
    for (int trial = 0; trial < 300; ++trial) {
        std::string mutated = base;
        const std::size_t edits = 1 + rng.index(4);
        for (std::size_t e = 0; e < edits; ++e) {
            const std::size_t pos = rng.index(mutated.size());
            mutated[pos] = static_cast<char>(32 + rng.index(95));
        }
        (void)read_both(kQasm, mutated);
    }
}
