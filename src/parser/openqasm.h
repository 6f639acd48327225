/// \file openqasm.h
/// \brief Parser for an OpenQASM 2.0 subset.
///
/// Many circuit toolchains emit OpenQASM 2.0; this parser accepts the
/// fragment needed to feed LEQA:
///
///     OPENQASM 2.0;
///     include "qelib1.inc";      // accepted and ignored
///     qreg q[3];                 // multiple registers allowed
///     creg c[3];                 // accepted and ignored
///     x q[0];
///     cx q[0], q[1];
///     ccx q[0], q[1], q[2];
///     h q[2];  t q[0];  tdg q[1];  s q[0];  sdg q[1];  y q[0];  z q[1];
///     swap q[0], q[1];
///     cswap q[0], q[1], q[2];
///     id q[0];                   // accepted and ignored
///     barrier q[0], q[1];        // accepted and ignored
///
/// Out of scope (rejected with a diagnostic): parameterized U/rx/ry/rz
/// gates, measure/reset (LEQA's latency model has no measurement stage),
/// gate definitions, and classical control ("if").
#pragma once

#include <string>
#include <string_view>

#include "circuit/circuit.h"

namespace leqa::parser {

/// Parse OpenQASM 2.0 subset text.  Gate mnemonics resolve through
/// circuit::find_gate_name, so the LEQA spellings (cnot, toffoli, ...) are
/// accepted next to the OpenQASM ones.
[[nodiscard]] circuit::Circuit parse_openqasm(std::string_view text,
                                              const std::string& source_name = "<string>");

/// True when the text looks like OpenQASM (leading OPENQASM declaration).
/// Reads only up to the first line with content.
[[nodiscard]] bool looks_like_openqasm(std::string_view text);

/// Serialize a circuit to OpenQASM 2.0.  Multi-controlled gates beyond
/// ccx/cswap are rejected (lower them with FT synthesis first).
[[nodiscard]] std::string write_openqasm(const circuit::Circuit& circ);

} // namespace leqa::parser
