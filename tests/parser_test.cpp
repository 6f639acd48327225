// Unit tests for the parser module: QASM subset, RevLib .real, round-trips,
// diagnostics.  Every reader input runs through both reader outputs, a
// circuit and the QODG's tape (two_outputs.h).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#if defined(__unix__)
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "parser/diagnostics.h"
#include "parser/io.h"
#include "parser/lexer.h"
#include "parser/openqasm.h"
#include "parser/qasm.h"
#include "parser/real.h"
#include "two_outputs.h"
#include "util/rng.h"

namespace lp = leqa::parser;
namespace lc = leqa::circuit;
using two_outputs::expect_rejected;
using two_outputs::kOpenQasm;
using two_outputs::kQasm;
using two_outputs::kReal;
using two_outputs::read;

// ------------------------------------------------------------------- qasm --

TEST(QasmParser, ParsesDirectivesAndGates) {
    const std::string text = R"(# a comment
.name ham3
.qubits 3
h q0
t q1            // trailing comment
tdg q2
cnot q0, q1
toffoli q0 q1 q2
)";
    const auto circ = read(kQasm, text);
    EXPECT_EQ(circ.name(), "ham3");
    EXPECT_EQ(circ.num_qubits(), 3u);
    ASSERT_EQ(circ.size(), 5u);
    EXPECT_EQ(circ.gate(0).kind, lc::GateKind::H);
    EXPECT_EQ(circ.gate(3).kind, lc::GateKind::Cnot);
    EXPECT_EQ(circ.gate(4).kind, lc::GateKind::Toffoli);
    EXPECT_EQ(std::vector<lc::Qubit>(circ.gate(4).qubits().begin(), circ.gate(4).qubits().end()),
              (std::vector<lc::Qubit>{0, 1, 2}));
    EXPECT_EQ(circ.gate(4).controls().size(), 2u);
}

TEST(QasmParser, NamedQubitDeclarations) {
    const std::string text = R"(qubit alpha
qubit beta
cnot alpha, beta
)";
    const auto circ = read(kQasm, text);
    EXPECT_EQ(circ.num_qubits(), 2u);
    EXPECT_EQ(circ.qubit_name(0), "alpha");
    EXPECT_EQ(circ.gate(0).controls()[0], 0u);
    EXPECT_EQ(circ.gate(0).targets()[0], 1u);
}

TEST(QasmParser, MultiControlledGates) {
    const std::string text = ".qubits 5\ntoffoli q0 q1 q2 q3 q4\nfredkin q0, q1, q2\n";
    const auto circ = read(kQasm, text);
    ASSERT_EQ(circ.size(), 2u);
    EXPECT_EQ(circ.gate(0).controls().size(), 4u);
    EXPECT_EQ(circ.gate(1).kind, lc::GateKind::Fredkin);
    EXPECT_EQ(circ.gate(1).controls().size(), 1u);
    EXPECT_EQ(circ.gate(1).targets().size(), 2u);
}

TEST(QasmParser, ErrorsCarryLineNumbers) {
    const std::string text = ".qubits 2\ncnot q0, q9\n";
    expect_rejected(kQasm, text);
    try {
        (void)lp::parse_qasm(text, "bad.qasm");
        FAIL() << "expected ParseError";
    } catch (const lp::ParseError& e) {
        EXPECT_EQ(e.location().line, 2u);
        EXPECT_EQ(e.location().file, "bad.qasm");
        EXPECT_NE(std::string(e.what()).find("bad.qasm:2"), std::string::npos);
    }
}

TEST(QasmParser, RejectsMalformedInput) {
    expect_rejected(kQasm, ".qubits two\n");
    expect_rejected(kQasm, ".qubits 2\n.qubits 2\n");
    expect_rejected(kQasm, ".bogus 1\n");
    expect_rejected(kQasm, ".qubits 2\nfrobnicate q0\n");
    expect_rejected(kQasm, ".qubits 2\ncnot q0\n");
    expect_rejected(kQasm, ".qubits 2\ncnot q0, q0\n");
    expect_rejected(kQasm, "qubit 0bad\n");
    expect_rejected(kQasm, "qubit a\nqubit a\n");
}

TEST(QasmParser, EmptyCircuitParses) {
    const auto circ = read(kQasm, "# nothing here\n");
    EXPECT_EQ(circ.num_qubits(), 0u);
    EXPECT_TRUE(circ.empty());
}

TEST(QasmWriter, RoundTripsDefaultNames) {
    lc::Circuit circ(5, "rt");
    circ.add_comment("first");
    circ.h(0).cnot(0, 1).toffoli(1, 2, 3).tdg(3).fredkin(0, 1, 2).swap(2, 3);
    const lc::Qubit controls[] = {4, 0, 1, 2};
    circ.mcx(controls, 3); // five operands
    const std::string text = lp::write_qasm(circ);
    EXPECT_EQ(text,
              "# first\n"
              ".name rt\n"
              ".qubits 5\n"
              "h q0\n"
              "cnot q0, q1\n"
              "toffoli q1, q2, q3\n"
              "tdg q3\n"
              "fredkin q0, q1, q2\n"
              "swap q2, q3\n"
              "toffoli q4, q0, q1, q2, q3\n");
    const auto parsed = read(kQasm, text);
    EXPECT_TRUE(circ.same_structure(parsed));
    EXPECT_EQ(parsed.name(), "rt");
}

TEST(QasmWriter, RoundTripsNamedQubitsAndComments) {
    lc::Circuit circ;
    for (const char* name : {"a", "b", "q2", "anc0", "x_1"}) circ.add_qubit(name);
    circ.add_comment("generator: unit-test");
    circ.add_comment("");
    circ.cnot(0, 1).t(4).fredkin(3, 2, 0);
    const lc::Qubit controls[] = {0, 1, 2, 3};
    circ.mcx(controls, 4);
    const std::string text = lp::write_qasm(circ);
    EXPECT_EQ(text,
              "# generator: unit-test\n"
              "# \n"
              "qubit a\n"
              "qubit b\n"
              "qubit q2\n"
              "qubit anc0\n"
              "qubit x_1\n"
              "cnot a, b\n"
              "t x_1\n"
              "fredkin anc0, q2, a\n"
              "toffoli a, b, q2, anc0, x_1\n");
    const auto parsed = read(kQasm, text);
    EXPECT_TRUE(circ.same_structure(parsed));
    EXPECT_EQ(parsed.qubit_name(0), "a");
}

TEST(Parsers, DeclaredQubitCountsAreBounded) {
    // One qubit past the bound is a ParseError naming the directive, on its
    // line, before any qubit of it is added.
    const std::string over = std::to_string(lp::kMaxDeclaredQubits + 1);
    const std::string rest = std::to_string(lp::kMaxDeclaredQubits - 1);
    struct Case {
        const two_outputs::Reader& reader;
        std::string text;
        std::string directive;
        std::size_t line;
    };
    const std::vector<Case> cases = {
        {kQasm, "# header\n.qubits " + over + "\n", ".qubits", 2},
        {kQasm, ".qubits 100000000\n", ".qubits", 1},
        {kReal, ".version 1.0\n.numvars " + over + "\n.begin\n.end\n", ".numvars", 3},
        {kOpenQasm, "OPENQASM 2.0;\nqreg a[2];\nqreg b[" + rest + "];\n", "qreg", 3},
    };
    for (const Case& c : cases) {
        expect_rejected(c.reader, c.text);
        const two_outputs::Verdict verdict =
            two_outputs::verdict_of([&] { (void)c.reader.parse(c.text, "<string>"); });
        EXPECT_EQ(verdict.line, c.line) << c.text;
        EXPECT_NE(verdict.message.find(c.directive + " would declare more than " +
                                       std::to_string(lp::kMaxDeclaredQubits) + " qubits"),
                  std::string::npos)
            << verdict.message;
    }
    // At the bound, the sum of two registers is fine (checked on the tape,
    // which keeps no names).
    leqa::qodg::Qodg::Builder tape;
    lp::parse_openqasm_into("OPENQASM 2.0;\nqreg a[1];\nqreg b[" + rest + "];\n", "<string>",
                            tape);
    EXPECT_EQ(leqa::qodg::Qodg(std::move(tape)).num_qubits(), lp::kMaxDeclaredQubits);
}

TEST(QasmRoundTrip, RandomCircuitsProperty) {
    // Property: write(parse(write(c))) is stable and structure-preserving
    // for arbitrary gate mixes.
    leqa::util::Rng rng(20260610);
    for (int trial = 0; trial < 25; ++trial) {
        const std::size_t n = 3 + rng.index(6);
        lc::Circuit circ(n, "prop" + std::to_string(trial));
        const std::size_t gates = 1 + rng.index(40);
        for (std::size_t g = 0; g < gates; ++g) {
            const auto picks = rng.sample_without_replacement(n, 3);
            switch (rng.index(6)) {
                case 0: circ.h(static_cast<lc::Qubit>(picks[0])); break;
                case 1: circ.t(static_cast<lc::Qubit>(picks[0])); break;
                case 2: circ.x(static_cast<lc::Qubit>(picks[0])); break;
                case 3:
                    circ.cnot(static_cast<lc::Qubit>(picks[0]),
                              static_cast<lc::Qubit>(picks[1]));
                    break;
                case 4:
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
        const auto parsed = read(kQasm, lp::write_qasm(circ));
        EXPECT_TRUE(circ.same_structure(parsed)) << "trial " << trial;
    }
}

// ------------------------------------------------------------------- real --

TEST(RealParser, ParsesCanonicalFile) {
    const std::string text = R"(# ham3 style file
.version 1.0
.numvars 3
.variables a b c
.inputs a b c
.outputs a b c
.begin
t1 a
t2 a b
t3 a b c
f3 a b c
f2 b c
.end
)";
    const auto circ = read(kReal, text);
    EXPECT_EQ(circ.num_qubits(), 3u);
    ASSERT_EQ(circ.size(), 5u);
    EXPECT_EQ(circ.gate(0).kind, lc::GateKind::X);
    EXPECT_EQ(circ.gate(1).kind, lc::GateKind::Cnot);
    EXPECT_EQ(circ.gate(2).kind, lc::GateKind::Toffoli);
    EXPECT_EQ(circ.gate(3).kind, lc::GateKind::Fredkin);
    EXPECT_EQ(circ.gate(4).kind, lc::GateKind::Swap);
}

TEST(RealParser, NumvarsWithoutVariablesGetsDefaults) {
    const std::string text = ".numvars 2\n.begin\nt2 x0 x1\n.end\n";
    const auto circ = read(kReal, text);
    EXPECT_EQ(circ.num_qubits(), 2u);
    EXPECT_EQ(circ.qubit_name(0), "x0");
}

TEST(RealParser, LargeToffoli) {
    const std::string text =
        ".numvars 5\n.variables a b c d e\n.begin\nt5 a b c d e\n.end\n";
    const auto circ = read(kReal, text);
    ASSERT_EQ(circ.size(), 1u);
    EXPECT_EQ(circ.gate(0).kind, lc::GateKind::Toffoli);
    EXPECT_EQ(circ.gate(0).controls().size(), 4u);
}

TEST(RealParser, Diagnostics) {
    expect_rejected(kReal, ".numvars x\n");
    expect_rejected(kReal, ".numvars 1\n.variables a b\n");
    expect_rejected(kReal, "t1 a\n");            // before .begin
    expect_rejected(kReal, ".numvars 1\n.begin\nt1 x0\n"); // no .end
    expect_rejected(kReal, ".numvars 2\n.begin\nt3 x0 x1\n.end\n"); // arity mismatch
    expect_rejected(kReal, ".numvars 2\n.begin\ng2 x0 x1\n.end\n"); // unknown family
    expect_rejected(kReal, ".numvars 2\n.begin\nt2 x0 zz\n.end\n"); // unknown variable
}

TEST(RealWriter, RoundTripsClassicalCircuit) {
    lc::Circuit circ(4, "rev");
    circ.x(0).cnot(0, 1).toffoli(0, 1, 2).fredkin(0, 2, 3).swap(1, 3);
    circ.add_gate(lc::make_mcx(std::vector<lc::Qubit>{0, 1, 2}, 3));
    const std::string text = lp::write_real(circ);
    const auto parsed = read(kReal, text);
    EXPECT_TRUE(circ.same_structure(parsed));
}

TEST(RealWriter, RejectsNonClassical) {
    lc::Circuit circ(1);
    circ.h(0);
    EXPECT_THROW((void)lp::write_real(circ), leqa::util::InputError);
}

// --------------------------------------------------------------------- io --

TEST(Io, SaveAndLoadByExtension) {
    lc::Circuit circ(3, "diskrt");
    circ.x(0).cnot(0, 1).toffoli(0, 1, 2);

    const std::string qasm_path = ::testing::TempDir() + "/leqa_io_test.qasm";
    lp::save_netlist(circ, qasm_path);
    const auto from_qasm = lp::load_netlist(qasm_path);
    EXPECT_TRUE(circ.same_structure(from_qasm));

    const std::string real_path = ::testing::TempDir() + "/leqa_io_test.real";
    lp::save_netlist(circ, real_path);
    const auto from_real = lp::load_netlist(real_path);
    EXPECT_TRUE(circ.same_structure(from_real));

    std::remove(qasm_path.c_str());
    std::remove(real_path.c_str());
}

TEST(Io, MissingFileThrows) {
    EXPECT_THROW((void)lp::load_netlist("/nonexistent/path/foo.qasm"),
                 leqa::util::InputError);
}

// ------------------------------------------------------------------ lexer --

TEST(Lexer, NextTokenDropsEmptyFields) {
    std::string_view rest = "  t3  a   b c\t";
    EXPECT_EQ(lp::lex::count_tokens(rest), 4u);
    EXPECT_EQ(lp::lex::next_token(rest), "t3");
    EXPECT_EQ(lp::lex::next_token(rest), "a");
    EXPECT_EQ(lp::lex::next_token(rest), "b");
    EXPECT_EQ(lp::lex::next_token(rest), "c");
    EXPECT_EQ(lp::lex::next_token(rest), "");

    std::string_view operands = " a0,b0 ,, c0";
    EXPECT_EQ(lp::lex::count_tokens(operands), 3u); // "a0,b0", ",,", "c0"
}

TEST(Lexer, LinesFollowGetline) {
    lp::lex::Lines lines("a\r\n\nb");
    std::string_view line;
    ASSERT_TRUE(lines.next(line));
    EXPECT_EQ(line, "a\r");
    ASSERT_TRUE(lines.next(line));
    EXPECT_EQ(line, "");
    ASSERT_TRUE(lines.next(line));
    EXPECT_EQ(line, "b");
    EXPECT_EQ(lines.number(), 3u);
    EXPECT_FALSE(lines.next(line));

    lp::lex::Lines trailing("x\n");
    ASSERT_TRUE(trailing.next(line));
    EXPECT_FALSE(trailing.next(line)); // a final newline starts no line
    EXPECT_EQ(lp::lex::strip_comment("h q0 # c // d"), "h q0 ");
    EXPECT_EQ(lp::lex::strip_comment("h q0 // c # d"), "h q0 // c ");
    EXPECT_EQ(lp::lex::strip_comment("h q0 // c"), "h q0 // c");
}

// ----------------------------------------------------- lexical edge cases --

namespace {

/// Parse \p text and expect a ParseError at \p line whose message holds
/// \p fragment, and the same error from the reader run into a tape.
void expect_error(const two_outputs::Reader& reader, const std::string& text, std::size_t line,
                  const std::string& fragment) {
    (void)two_outputs::read_both(reader, text, "edge.txt");
    try {
        (void)reader.parse(text, "edge.txt");
        ADD_FAILURE() << "expected ParseError for:\n" << text;
    } catch (const lp::ParseError& e) {
        EXPECT_EQ(e.location().line, line) << e.what();
        EXPECT_NE(std::string(e.what()).find("edge.txt:" + std::to_string(line) + ": "),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos) << e.what();
    }
}

/// The gate sequence as (kind, operands) pairs, for compact comparisons.
std::vector<std::pair<lc::GateKind, std::vector<lc::Qubit>>> gates_of(const lc::Circuit& circ) {
    std::vector<std::pair<lc::GateKind, std::vector<lc::Qubit>>> out;
    for (const lc::Gate& g : circ.gates()) {
        out.emplace_back(g.kind, std::vector<lc::Qubit>(g.qubits().begin(), g.qubits().end()));
    }
    return out;
}

const std::vector<std::pair<lc::GateKind, std::vector<lc::Qubit>>> kEdgeGates = {
    {lc::GateKind::Cnot, {0, 1}},
    {lc::GateKind::H, {1}},
    {lc::GateKind::Toffoli, {0, 1, 2}},
};

} // namespace

TEST(LexicalEdgeCases, Qasm) {
    // CRLF endings, tabs, '#' and '//' after operands, "a0,b0" without
    // spaces, and no newline after the last line all parse the same.
    const std::string text =
        "qubit a0\r\nqubit b0\r\n\tqubit\tc0  \r\n\r\n"
        "cnot a0,b0 # first\r\n"
        "\th\tb0\t// second\r\n"
        "toffoli a0 ,b0,\tc0";
    const auto circ = read(kQasm, text);
    EXPECT_EQ(circ.num_qubits(), 3u);
    EXPECT_EQ(gates_of(circ), kEdgeGates);

    const auto blank = read(kQasm, "\n\r\n  \t\n\n");
    EXPECT_EQ(blank.num_qubits(), 0u);
    EXPECT_TRUE(blank.empty());

    const std::string head = ".qubits 2\r\n\r\nh q0\r\n";
    expect_error(kQasm, head + "cnot q0,\tq7 # q7?\r\n", 4, "unknown qubit 'q7'");
    expect_error(kQasm, head + "h q0\nccz q0 q1", 5, "unknown gate or keyword 'ccz'");
    expect_error(kQasm, head + "swap q1 // one operand\r\n", 4,
                 "swap: expected at least 2 operand(s)");
    expect_error(kQasm, head + "\tcnot q1,q1\r\n", 4, "duplicate qubit operand");
    expect_error(kQasm, "qubit a0\r\n\r\nqubit a0 # again\r\n", 3,
                 "edge.txt:3: requirement failed: duplicate qubit name: a0");
}

TEST(LexicalEdgeCases, Real) {
    const std::string text =
        ".version 1.0\r\n.numvars 3\r\n.variables\ta0 b0  c0\r\n\r\n.begin\r\n"
        "t2 a0\tb0 # first\r\n"
        "\tt1 b0\r\n"
        "t3 a0 b0 c0\t#third\r\n"
        ".end";
    const auto circ = read(kReal, text);
    EXPECT_EQ(circ.num_qubits(), 3u);
    EXPECT_EQ(gates_of(circ)[0], kEdgeGates[0]);
    EXPECT_EQ(gates_of(circ)[1], (std::pair<lc::GateKind, std::vector<lc::Qubit>>{
                                     lc::GateKind::X, {1}}));
    EXPECT_EQ(gates_of(circ)[2], kEdgeGates[2]);

    const auto blank = read(kReal, "\n\r\n  \t\n\n");
    EXPECT_EQ(blank.num_qubits(), 0u);
    EXPECT_TRUE(blank.empty());

    // .real separates operands by whitespace only, and '#' is its only
    // comment marker: "a0,b0" is one operand, "//" starts two more.
    const std::string head = ".numvars 2\r\n.variables a0 b0\r\n.begin\r\n";
    expect_error(kReal, head + "t2 a0,b0\r\n.end\r\n", 4,
                 "expects 2 operands, got 1");
    expect_error(kReal, head + "t2 a0 b0 // c\r\n.end\r\n", 4,
                 "expects 2 operands, got 4");
    expect_error(kReal, head + "t1 a0\r\nt2 a0\tzz # ?\r\n.end", 5,
                 "unknown variable 'zz'");
    expect_error(kReal, head + "\r\ng2 a0 b0\r\n.end", 5, "unknown gate 'g2'");
    expect_error(kReal, head + "t3 a0 b0\r\n.end", 4, "expects 3 operands, got 2");
    expect_error(kReal, head + "f1 a0\r\n.end", 4, "fN gates need at least 2");
    expect_error(kReal, head + "t2 b0 b0\r\n.end", 4, "duplicate qubit operand");
    expect_error(kReal, head + "t1 a0", 4, "missing .end");
    expect_error(kReal, ".variables a0 b0\r\n.variables b0\r\n", 2,
                 "edge.txt:2: requirement failed: duplicate qubit name: b0");
}

TEST(LexicalEdgeCases, OpenQasm) {
    const std::string text =
        "OPENQASM 2.0;\r\ninclude \"qelib1.inc\";\r\n\tqreg q[3];\r\n\r\n"
        "cx q[0],q[1]; // first\r\n"
        "\th\tq[1];\t// second\r\n"
        "ccx q[0] ,q[1],\tq[2];";
    const auto circ = read(kOpenQasm, text);
    EXPECT_EQ(circ.num_qubits(), 3u);
    EXPECT_EQ(gates_of(circ), kEdgeGates);
    EXPECT_TRUE(lp::looks_like_openqasm(text));

    const auto blank = read(kOpenQasm, "\n\r\n  \t\n\n");
    EXPECT_EQ(blank.num_qubits(), 0u);
    EXPECT_TRUE(blank.empty());
    EXPECT_FALSE(lp::looks_like_openqasm("\n\r\n  \t\n\n"));

    const std::string head = "OPENQASM 2.0;\r\nqreg q[2];\r\n";
    expect_error(kOpenQasm, head + "\r\ncx q[0],\tr[1]; // r?\r\n", 4,
                 "unknown qreg 'r'");
    expect_error(kOpenQasm, head + "h q[0];\nccz q[0],q[1];", 4,
                 "unknown gate 'ccz'");
    expect_error(kOpenQasm, head + "ccx q[0],\r\n  q[1]; // two\r\n", 3,
                 "'ccx' expects 3 operands, got 2");
    expect_error(kOpenQasm, head + "\tcx q[1],q[1];\r\n", 3,
                 "duplicate qubit operand");
    expect_error(kOpenQasm, head + "h q[0]; // ;\r\nh q[1]", 4,
                 "statement not terminated by ';': 'h q[1]'");
}

TEST(Diagnostics, QuoteAtMost64BytesOfAToken) {
    // A 1 MB token is quoted as its first 64 bytes and "...", so the whole
    // message stays short and keeps its line.
    const std::string token(std::size_t{1} << 20, 'g');
    const std::string quoted = "'" + token.substr(0, 64) + "...'";
    struct Case {
        const two_outputs::Reader* reader;
        std::string text;
        std::size_t line;
        std::string fragment;
    };
    const Case cases[] = {
        {&kQasm, ".qubits 2\nh q0\n" + token + " q0\n", 3, "unknown gate or keyword " + quoted},
        {&kQasm, ".qubits 2\nh q0\ncnot q0, " + token + "\n", 3, "unknown qubit " + quoted},
        {&kReal, ".numvars 1\n.begin\n" + token + " x0\n.end\n", 3, "unknown gate " + quoted},
        {&kOpenQasm, "OPENQASM 2.0;\nqreg q[1];\n" + token + " q[0];\n", 3,
         "unknown gate " + quoted},
        {&kOpenQasm, "OPENQASM 2.0;\nqreg q[1];\n\n" + token, 4,
         "statement not terminated by ';': " + quoted},
    };
    for (const Case& c : cases) {
        expect_error(*c.reader, c.text, c.line, c.fragment);
        try {
            (void)c.reader->parse(c.text, "edge.txt");
        } catch (const lp::ParseError& e) {
            EXPECT_LT(std::string(e.what()).size(), 256u) << c.reader->name;
        }
    }
    EXPECT_EQ(lp::excerpt("short"), "short");
    EXPECT_EQ(lp::excerpt(token.substr(0, 64)), token.substr(0, 64));
    EXPECT_EQ(lp::excerpt(token.substr(0, 65)), token.substr(0, 64) + "...");
}

// --------------------------------------- the chunk scanner vs byte scanner --
//
// The QASM-subset reader classifies its text 16 bytes per step and keys
// names by their first 8 bytes; tests/support/reference keeps the byte
// scanner and FNV index it replaced.  Every text must get the same verdict
// from both: the same tape, or the same message on the same line.  (Every
// QASM-subset input above runs through both too, in two_outputs::read_both.)

namespace {

/// Run \p texts through both scanners; expect no mismatch, and report the
/// first few.
void expect_same_scans(const std::vector<std::string>& texts) {
    std::size_t mismatches = 0;
    for (const std::string& text : texts) {
        const std::string mismatch = two_outputs::scanner_mismatch(kQasm, text);
        if (mismatch.empty()) continue;
        if (++mismatches <= 5) ADD_FAILURE() << mismatch << " on:\n" << text;
    }
    EXPECT_EQ(mismatches, 0u) << "of " << texts.size() << " texts";
}

/// Each byte class the scanner's masks tell apart.
const std::vector<std::string> kByteClasses = {
    " ", "\t", "\v", "\f", "\r\n", "\n", ",", "#", "//", "/", std::string(1, '\0'), "\x80", "\xff"};

} // namespace

TEST(QasmScanner, AgreesWithTheByteScannerOnTheFuzzCorpus) {
    std::vector<std::string> texts;
    for (const char* dir : {"corpus", "regressions"}) {
        const std::filesystem::path root =
            std::filesystem::path(LEQA_SOURCE_DIR) / "fuzz" / dir / "fuzz_qasm";
        for (const auto& entry : std::filesystem::directory_iterator(root)) {
            std::ifstream in(entry.path(), std::ios::binary);
            texts.emplace_back(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
        }
    }
    ASSERT_GE(texts.size(), 7u);
    expect_same_scans(texts);
}

TEST(QasmScanner, AgreesWithTheByteScannerAtEveryChunkOffset) {
    // Each byte class at every offset 0-31 of a line's first two chunks,
    // after the start of a gate line cut to that length (or padded with
    // spaces), then a tail; with and without a final newline, after a
    // header of either length, and with or without a line after it.
    const std::vector<std::string> starts = {"cnot a,b", "toffoli a b c", "  h\ta", "cnot a , b ,c"};
    const std::vector<std::string> tails = {"", "b", " b", ",b", "a # c", " // c", "\tb\r"};
    const std::vector<std::string> headers = {"qubit a\nqubit b\nqubit c\n",
                                              "# head\nqubit a\nqubit b\r\nqubit c\n"};
    std::vector<std::string> texts;
    for (const std::string& byte_class : kByteClasses) {
        for (std::size_t offset = 0; offset < 32; ++offset) {
            for (const std::string& start : starts) {
                std::string head = start;
                head.resize(offset, ' ');
                for (const std::string& tail : tails) {
                    for (const std::string& header : headers) {
                        const std::string line = head + byte_class + tail;
                        texts.push_back(header + line);
                        texts.push_back(header + line + "\n");
                        texts.push_back(header + line + "\nt b");
                    }
                }
            }
        }
    }
    ASSERT_GE(texts.size(), 20000u);
    expect_same_scans(texts);
}

TEST(QasmScanner, AgreesWithTheByteScannerOnNamesOfEveryLength) {
    // Names of 1-24 bytes at every offset 0-31 of the line: two names that
    // differ in their last byte (from 17 bytes on, they share their first
    // 16), and an undeclared name one byte longer.
    const std::string letters = "abcdefghijklmnopqrstuvwxyz";
    std::vector<std::string> texts;
    for (std::size_t length = 1; length <= 24; ++length) {
        const std::string first = letters.substr(0, length);
        const std::string second = letters.substr(0, length - 1) + "Z";
        const std::string header = "qubit " + first + "\nqubit " + second + "\n";
        for (std::size_t offset = 0; offset < 32; ++offset) {
            const std::string gate = "cnot" + std::string(offset, ' ');
            for (const std::string& line :
                 {gate + first + "," + second, gate + second + " " + first + " # x",
                  gate + first + "," + first + "q", gate + second + "\t" + first + "//"}) {
                texts.push_back(header + line);
                texts.push_back(header + line + "\r\n");
            }
        }
    }
    expect_same_scans(texts);
}

#if defined(__unix__)
TEST(QasmScanner, ReadsNoByteAfterTheText) {
    // Each text of 0-64 bytes ends just before a PROT_NONE page, so a read
    // past its end faults, in a Release build too.
    const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
    void* const block =
        mmap(nullptr, 2 * page, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(block, MAP_FAILED);
    char* const guard = static_cast<char*>(block) + page;
    ASSERT_EQ(mprotect(guard, page, PROT_NONE), 0);

    const std::vector<std::string> bases = {
        "qubit a\nqubit b\ncnot a, b // c\nh a # d\nt b\ncnot b,a\nh b\nt a\nh a\n",
        "qubit abcdefghijklmnopqrstuvw\nqubit b\ncnot b abcdefghijklmnopqrstuvw\nh b/",
        ".qubits 2\r\n\r\ntoffoli q0 q1\t// one/two\r\n#\r\nh\tq1,,q0///\r\ncnot q0",
        "\n\n  \t\n# only comments and blank lines //\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n\n"};
    std::vector<std::string> texts;
    for (const std::string& base : bases) {
        for (std::size_t length = 0; length <= 64; ++length) {
            const std::string text = base.substr(0, length);
            char* const start = guard - text.size();
            std::copy(text.begin(), text.end(), start);
            const std::string_view at_guard(start, text.size());
            EXPECT_EQ(two_outputs::scanner_mismatch(kQasm, at_guard), "") << text;
            (void)two_outputs::verdict_of([&] { (void)lp::parse_qasm(at_guard, "<guard>"); });
            EXPECT_LE(lp::gates_to_reserve(at_guard), (text.size() + 1) / 4) << text;
        }
    }
    munmap(block, 2 * page);
}
#endif

TEST(QasmScanner, GatesToReserveIsTheNewlineCountCapped) {
    EXPECT_EQ(lp::gates_to_reserve(""), 0u);
    EXPECT_EQ(lp::gates_to_reserve("h a\n"), 1u);
    EXPECT_EQ(lp::gates_to_reserve("h a"), 0u);
    // One gate line per 4 bytes at most: blank lines reserve a quarter.
    EXPECT_EQ(lp::gates_to_reserve(std::string(1000, '\n')), 250u);
    EXPECT_EQ(lp::gates_to_reserve(std::string(1003, '\n')), 251u);
    std::string netlist;
    for (int i = 0; i < 500; ++i) netlist += i % 2 == 0 ? "cnot q0, q1\n" : "t q1\n";
    EXPECT_EQ(lp::gates_to_reserve(netlist), 500u);
    EXPECT_EQ(lp::gates_to_reserve(netlist + "h q0"), 500u);
}
