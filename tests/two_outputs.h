/// \file two_outputs.h
/// \brief Run a netlist reader into both of its outputs, a Circuit and the
///        QODG's tape, and check that they agree.
///
/// The readers of parser/readers.h are templates over their output: the
/// `parse_*` functions read into a Circuit, and the pipeline reads a path
/// source straight into a `qodg::Qodg::Builder`.  For one text both must
/// reject with the same message and line, or accept and give tapes equal
/// to `Qodg(parse_*(text))` in `to_dot()` and `gate_counts()`, with a
/// bit-identical circuit profile.  The QASM-subset reader must also take
/// every text as the byte scanner it replaced does (scanner_mismatch).
#pragma once

#include <gtest/gtest.h>

#include <bit>
#include <optional>
#include <string>
#include <string_view>

#include "core/engine.h"
#include "parser/diagnostics.h"
#include "parser/openqasm.h"
#include "parser/qasm.h"
#include "parser/readers.h"
#include "parser/real.h"
#include "qodg/qodg.h"
#include "reference/qasm_reference.h"

namespace two_outputs {

using IntoTape = void (*)(std::string_view, const std::string&, leqa::qodg::Qodg::Builder&);

/// One reader: its Circuit function and its template run into a tape,
/// and the reader it must agree with, if any.
struct Reader {
    const char* name;
    leqa::circuit::Circuit (*parse)(std::string_view, const std::string&);
    IntoTape into_tape;
    IntoTape reference = nullptr;
};

inline const Reader kQasm{"qasm", leqa::parser::parse_qasm,
                          leqa::parser::parse_qasm_into<leqa::qodg::Qodg::Builder>,
                          leqa::parser::reference::parse_qasm_into<leqa::qodg::Qodg::Builder>};
inline const Reader kReal{"real", leqa::parser::parse_real,
                          leqa::parser::parse_real_into<leqa::qodg::Qodg::Builder>};
inline const Reader kOpenQasm{"openqasm", leqa::parser::parse_openqasm,
                              leqa::parser::parse_openqasm_into<leqa::qodg::Qodg::Builder>};

/// How one output took a text.
struct Verdict {
    bool accepted = false;
    bool parse_error = false; ///< rejected with a parser::ParseError
    std::string message;      ///< what(), when rejected
    std::size_t line = 0;     ///< the ParseError's line
};

template <class Body>
Verdict verdict_of(Body&& body) {
    Verdict verdict;
    try {
        body();
        verdict.accepted = true;
    } catch (const leqa::parser::ParseError& e) {
        verdict.parse_error = true;
        verdict.message = e.what();
        verdict.line = e.location().line;
    } catch (const leqa::util::Error& e) {
        verdict.message = e.what();
    }
    return verdict;
}

/// How \p reader's tape output and its reference take \p text, when they
/// differ: acceptance, message, line, or the tape's to_dot() and gate
/// counts.  Empty when they agree, or when the reader has no reference.
inline std::string scanner_mismatch(const Reader& reader, std::string_view text) {
    if (reader.reference == nullptr) return {};
    leqa::qodg::Qodg::Builder tape;
    leqa::qodg::Qodg::Builder reference_tape;
    const Verdict by_tape = verdict_of([&] { reader.into_tape(text, "<scan>", tape); });
    const Verdict by_reference =
        verdict_of([&] { reader.reference(text, "<scan>", reference_tape); });
    if (by_tape.accepted != by_reference.accepted || by_tape.message != by_reference.message ||
        by_tape.line != by_reference.line) {
        return "verdicts differ: '" + by_tape.message + "' (line " +
               std::to_string(by_tape.line) + ") against the reference's '" +
               by_reference.message + "' (line " + std::to_string(by_reference.line) + ")";
    }
    if (!by_tape.accepted) return {};
    const leqa::qodg::Qodg graph(std::move(tape));
    const leqa::qodg::Qodg reference_graph(std::move(reference_tape));
    if (graph.gate_counts() != reference_graph.gate_counts() ||
        graph.to_dot() != reference_graph.to_dot()) {
        return "tapes differ";
    }
    return {};
}

/// Expect the circuit-built and the streamed QODG of one text to agree.
inline void expect_same_graph(const leqa::qodg::Qodg& from_circuit,
                              const leqa::qodg::Qodg& from_tape, const std::string& what) {
    EXPECT_EQ(from_tape.num_qubits(), from_circuit.num_qubits()) << what;
    EXPECT_EQ(from_tape.num_ops(), from_circuit.num_ops()) << what;
    EXPECT_EQ(from_tape.gate_counts(), from_circuit.gate_counts()) << what;
    if (from_circuit.num_ops() <= 5000) {
        EXPECT_EQ(from_tape.to_dot(), from_circuit.to_dot()) << what;
    }
    const auto tape = leqa::core::CircuitProfile::build(from_tape);
    const auto circuit = leqa::core::CircuitProfile::build(from_circuit);
    EXPECT_EQ(tape.num_qubits, circuit.num_qubits) << what;
    EXPECT_EQ(tape.num_ops, circuit.num_ops) << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tape.zone_area_b),
              std::bit_cast<std::uint64_t>(circuit.zone_area_b))
        << what;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(tape.d_uncongest_v),
              std::bit_cast<std::uint64_t>(circuit.d_uncongest_v))
        << what;
    EXPECT_EQ(tape.gate_counts, circuit.gate_counts) << what;
}

/// Read \p text through both outputs of \p reader and expect them to
/// agree.  Returns the circuit when both accepted.
inline std::optional<leqa::circuit::Circuit> read_both(const Reader& reader,
                                                       std::string_view text,
                                                       const std::string& source = "<string>") {
    std::optional<leqa::circuit::Circuit> circuit;
    const Verdict by_circuit = verdict_of([&] { circuit = reader.parse(text, source); });
    leqa::qodg::Qodg::Builder tape;
    const Verdict by_tape = verdict_of([&] { reader.into_tape(text, source, tape); });

    const std::string what = std::string(reader.name) + " reader on:\n" +
                             std::string(text.substr(0, 400));
    EXPECT_EQ(scanner_mismatch(reader, text), "") << what;
    EXPECT_EQ(by_tape.accepted, by_circuit.accepted) << what << "\n" << by_circuit.message
                                                     << by_tape.message;
    EXPECT_EQ(by_tape.parse_error, by_circuit.parse_error) << what;
    EXPECT_EQ(by_tape.message, by_circuit.message) << what;
    EXPECT_EQ(by_tape.line, by_circuit.line) << what;
    if (!by_circuit.accepted || !by_tape.accepted) return std::nullopt;
    expect_same_graph(leqa::qodg::Qodg(*circuit), leqa::qodg::Qodg(std::move(tape)), what);
    return circuit;
}

/// Both outputs accept \p text; the circuit.
inline leqa::circuit::Circuit read(const Reader& reader, std::string_view text) {
    std::optional<leqa::circuit::Circuit> circuit = read_both(reader, text);
    if (!circuit) {
        ADD_FAILURE() << reader.name << " rejected:\n" << text;
        return {};
    }
    return *std::move(circuit);
}

/// Both outputs reject \p text with the same ParseError.
inline void expect_rejected(const Reader& reader, std::string_view text) {
    leqa::qodg::Qodg::Builder tape;
    const Verdict verdict = verdict_of([&] { reader.into_tape(text, "<string>", tape); });
    EXPECT_TRUE(verdict.parse_error) << reader.name << " accepted:\n" << text;
    (void)read_both(reader, text);
}

} // namespace two_outputs
