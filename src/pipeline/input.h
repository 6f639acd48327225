/// \file input.h
/// \brief Circuit-source resolution for the pipeline facade.
///
/// A CircuitSource names the circuit a pipeline request operates on without
/// committing to when (or how often) it is materialized:
///   - Path:   a netlist file (.qasm / .real), read by Pipeline::resolve,
///             which streams it into the QODG's tape;
///   - Bench:  a generated suite benchmark ("bench:<name>" in CLI syntax);
///   - Inline: an in-memory Circuit handed over by the caller.
///
/// `parse_source` is the single CLI entry point and fixes the historical
/// resolution ambiguity: an existing file always wins, and `bench:` is the
/// only namespace that reaches the generated suite.  A bare suite name that
/// does not exist on disk is an error with a "did you mean bench:<name>?"
/// hint rather than a silent fallback.
#pragma once

#include <memory>
#include <string>

#include "circuit/circuit.h"
#include "fabric/params.h"
#include "util/args.h"

namespace leqa::pipeline {

/// Where a request's circuit comes from.
class CircuitSource {
public:
    enum class Kind { Path, Bench, Inline };

    /// A netlist file on disk (.qasm or .real).
    [[nodiscard]] static CircuitSource from_path(std::string path);

    /// A generated suite benchmark by name (e.g. "gf2^16mult", "ham3").
    [[nodiscard]] static CircuitSource from_bench(std::string name);

    /// An in-memory circuit.  The circuit is shared (copied once here);
    /// its cache identity is a structural fingerprint plus its name.
    [[nodiscard]] static CircuitSource from_circuit(circuit::Circuit circ);

    [[nodiscard]] Kind kind() const { return kind_; }

    /// Path for Path sources, benchmark name for Bench sources, circuit
    /// name for Inline sources.
    [[nodiscard]] const std::string& spec() const { return spec_; }

    /// Human-readable display name (file stem, bench name, circuit name).
    [[nodiscard]] std::string display_name() const;

    /// Stable cache-identity string (excludes synthesis options; the
    /// pipeline appends those).
    [[nodiscard]] const std::string& identity() const { return identity_; }

    /// Materialize a Bench or Inline source's circuit (generates /
    /// copies).  A Path source throws InputError: the pipeline reads its
    /// file, and parser::load_netlist(spec()) loads it as a circuit.
    [[nodiscard]] circuit::Circuit load() const;

private:
    CircuitSource(Kind kind, std::string spec, std::string identity)
        : kind_(kind), spec_(std::move(spec)), identity_(std::move(identity)) {}

    Kind kind_ = Kind::Bench;
    std::string spec_;
    std::string identity_;
    std::shared_ptr<const circuit::Circuit> inline_circuit_;
};

/// Structural fingerprint of a circuit (FNV-1a over qubit count and the
/// gate stream); the identity of Inline sources.
[[nodiscard]] std::uint64_t circuit_fingerprint(const circuit::Circuit& circ);

/// Resolve a CLI circuit spec:
///   - "bench:<name>"  -> the generated suite (the only suite namespace);
///   - an existing file path -> that netlist (always preferred);
///   - anything else -> InputError, with a bench: hint when the name
///     matches a suite benchmark.
[[nodiscard]] CircuitSource parse_source(const std::string& spec);

/// Register the shared fabric-parameter options on a CLI parser
/// (--params/--fabric/--nc/--v/--tmove).
void add_param_options(util::ArgParser& parser);

/// Build PhysicalParams from --params plus individual overrides.
[[nodiscard]] fabric::PhysicalParams params_from_args(const util::ArgParser& parser);

} // namespace leqa::pipeline
