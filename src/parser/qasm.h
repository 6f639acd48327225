/// \file qasm.h
/// \brief Parser and writer for the LEQA QASM-subset netlist format.
///
/// The format is line-oriented:
///
///     # comment (also "//")
///     .name gf2^16mult          # optional circuit name
///     .qubits 48                # declare 48 qubits named q0..q47, or
///     qubit a0                  # declare one named qubit (repeatable)
///
///     h q0
///     cnot q0, q1               # commas between operands are optional
///     toffoli a0 b0 c0          # any number of controls; last is target
///     fredkin c, x, y           # controls..., then the two swapped qubits
///
/// Gate mnemonics are those of circuit::parse_gate_name (x/not, y, z, h, s,
/// sdg, t, tdg, cnot/cx, toffoli/ccx, fredkin/cswap, swap).  For Toffoli all
/// operands but the last are controls; for Fredkin all but the last two.
///
/// The reader (`parse_qasm_into`, parser/readers.h) classifies each line 16
/// bytes at a time and cuts the head token and the operands with bit scans,
/// resolves the lower-case FT mnemonics without a table scan, and looks
/// each operand up in one circuit::QubitIndex, keyed by the name's first 8
/// bytes.  It writes a Circuit here and the QODG's tape in the pipeline.
#pragma once

#include <string>
#include <string_view>

#include "circuit/circuit.h"

namespace leqa::parser {

/// Parse QASM-subset text.  \p source_name is used in error messages.
[[nodiscard]] circuit::Circuit parse_qasm(std::string_view text,
                                          const std::string& source_name = "<string>");

/// Serialize a circuit to the QASM-subset format (round-trips through
/// parse_qasm up to comments and auto-generated qubit names).
[[nodiscard]] std::string write_qasm(const circuit::Circuit& circ);

} // namespace leqa::parser
