/// \file io.h
/// \brief File-level helpers: load a netlist by format, save text.
///
/// One format dispatch (`parse_netlist_into` of readers.h) picks the reader
/// for `load_netlist`, `parse_netlist` and the pipeline, which streams a
/// path source's text straight into the QODG's tape and calls
/// `parse_netlist` on the kept text when a map first needs the circuit.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "circuit/circuit.h"

namespace leqa::parser {

/// Read an entire file; throws InputError if it cannot be opened.
[[nodiscard]] std::string read_file(const std::string& path);

/// Write text to a file; throws InputError on failure.
void write_file(const std::string& path, const std::string& text);

/// How many gates to reserve for the netlist \p text: its newline count,
/// since a QASM-subset or .real line holds at most one gate, but at most
/// (size + 1) / 4, the most gate lines a text of that size can hold ("x a"
/// and its '\n' is the shortest).  Without the cap a file of blank lines
/// reserved 10 B per byte of tape, or 40 B per byte of Circuit.
[[nodiscard]] std::size_t gates_to_reserve(std::string_view text);

/// Parse the text of the netlist file \p path: ".real" -> RevLib parser;
/// otherwise OpenQASM when the text starts with its header, else the QASM
/// subset.  \p path names the source in error messages.
[[nodiscard]] circuit::Circuit parse_netlist(std::string_view text, const std::string& path);

/// read_file, then parse_netlist.
[[nodiscard]] circuit::Circuit load_netlist(const std::string& path);

/// Save a circuit choosing the writer from the extension: ".real" ->
/// write_real, anything else -> write_qasm.
void save_netlist(const circuit::Circuit& circ, const std::string& path);

} // namespace leqa::parser
