/// \file real.h
/// \brief Parser and writer for the RevLib ".real" reversible-circuit format
///        (the distribution format of the Maslov benchmark suite the paper
///        evaluates on).
///
/// Supported subset:
///
///     # comment
///     .version 1.0
///     .numvars 3
///     .variables a b c
///     .inputs a b c          (optional, informational)
///     .outputs a b c         (optional, informational)
///     .constants 0--         (optional, informational)
///     .garbage --1           (optional, informational)
///     .begin
///     t1 a                   # NOT a
///     t2 a b                 # CNOT a -> b
///     t3 a b c               # Toffoli a,b -> c (last operand is target)
///     tN ...                 # (N-1)-controlled NOT
///     f2 a b                 # SWAP a, b
///     f3 a b c               # Fredkin: a controls swap of b, c
///     fN ...                 # (N-2)-controlled SWAP
///     .end
#pragma once

#include <string>
#include <string_view>

#include "circuit/circuit.h"

namespace leqa::parser {

/// Parse .real text.  \p source_name is used in error messages.
[[nodiscard]] circuit::Circuit parse_real(std::string_view text,
                                          const std::string& source_name = "<string>");

/// Serialize to .real.  Only classical-reversible circuits (X, CNOT,
/// Toffoli, Fredkin, SWAP) can be represented; throws InputError otherwise.
[[nodiscard]] std::string write_real(const circuit::Circuit& circ);

} // namespace leqa::parser
