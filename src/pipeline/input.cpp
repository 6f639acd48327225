#include "pipeline/input.h"

#include <filesystem>

#include "benchgen/suite.h"
#include "util/error.h"
#include "util/strings.h"

namespace leqa::pipeline {

namespace {

circuit::Circuit make_bench_circuit(const std::string& name) {
    // ham3 is the paper's Figure 2 circuit, kept outside the Tables 2-3
    // suite; everything else resolves through the suite factories.
    if (name == "ham3") return benchgen::ham3();
    return benchgen::make_benchmark(name);
}

bool is_bench_name(const std::string& name) {
    return name == "ham3" || benchgen::has_benchmark(name);
}

} // namespace

std::uint64_t circuit_fingerprint(const circuit::Circuit& circ) {
    // FNV-1a over the qubit count and the gate stream.
    constexpr std::uint64_t kOffset = 1469598103934665603ULL;
    constexpr std::uint64_t kPrime = 1099511628211ULL;
    std::uint64_t hash = kOffset;
    const auto mix = [&hash](std::uint64_t value) {
        for (int byte = 0; byte < 8; ++byte) {
            hash ^= (value >> (8 * byte)) & 0xFF;
            hash *= kPrime;
        }
    };
    mix(circ.num_qubits());
    for (const circuit::Gate& gate : circ.gates()) {
        mix(static_cast<std::uint64_t>(gate.kind));
        for (const circuit::Qubit q : gate.controls()) mix(0x100000000ULL | q);
        for (const circuit::Qubit q : gate.targets()) mix(0x200000000ULL | q);
    }
    return hash;
}

CircuitSource CircuitSource::from_path(std::string path) {
    std::string identity = "path:" + path;
    return CircuitSource(Kind::Path, std::move(path), std::move(identity));
}

CircuitSource CircuitSource::from_bench(std::string name) {
    if (!is_bench_name(name)) {
        throw util::NotFoundError("unknown suite benchmark \"" + name + "\"");
    }
    std::string identity = "bench:" + name;
    return CircuitSource(Kind::Bench, std::move(name), std::move(identity));
}

CircuitSource CircuitSource::from_circuit(circuit::Circuit circ) {
    std::string name = circ.name().empty() ? "(inline)" : circ.name();
    std::string identity =
        "inline:" + name + "#" + std::to_string(circuit_fingerprint(circ));
    CircuitSource source(Kind::Inline, std::move(name), std::move(identity));
    source.inline_circuit_ = std::make_shared<const circuit::Circuit>(std::move(circ));
    return source;
}

std::string CircuitSource::display_name() const {
    if (kind_ != Kind::Path) return spec_;
    return std::filesystem::path(spec_).filename().string();
}

circuit::Circuit CircuitSource::load() const {
    LEQA_REQUIRE(kind_ != Kind::Path, "a path source is read by Pipeline::resolve, not load()");
    if (kind_ == Kind::Bench) return make_bench_circuit(spec_);
    LEQA_CHECK(inline_circuit_ != nullptr, "inline source without a circuit");
    return *inline_circuit_;
}

CircuitSource parse_source(const std::string& spec) {
    LEQA_REQUIRE(!spec.empty(), "empty circuit spec");
    if (util::starts_with(spec, "bench:")) {
        return CircuitSource::from_bench(spec.substr(6));
    }
    std::error_code ec;
    if (std::filesystem::exists(spec, ec)) {
        return CircuitSource::from_path(spec);
    }
    if (is_bench_name(spec)) {
        throw util::NotFoundError("no such file \"" + spec +
                                  "\"; generated suite benchmarks use the bench: "
                                  "namespace -- did you mean \"bench:" +
                                  spec + "\"?");
    }
    throw util::NotFoundError("no such file or bench: benchmark: \"" + spec + "\"");
}

void add_param_options(util::ArgParser& parser) {
    parser.add_option("params", "physical-parameter config file (Table 1 defaults)");
    parser.add_option("fabric", "fabric size as WxH, e.g. 60x60");
    parser.add_option("topology", "fabric topology: grid | torus | line");
    parser.add_option("nc", "routing channel capacity Nc");
    parser.add_option("v", "logical-qubit speed parameter v");
    parser.add_option("tmove", "per-hop move time in microseconds");
}

fabric::PhysicalParams params_from_args(const util::ArgParser& parser) {
    fabric::PhysicalParams params;
    if (parser.option_given("params")) {
        params = fabric::PhysicalParams::load(parser.option("params"));
    }
    const bool fabric_given = parser.option_given("fabric");
    if (fabric_given) {
        const auto parts = util::split(parser.option("fabric"), 'x');
        LEQA_REQUIRE(parts.size() == 2, "--fabric expects WxH, e.g. 60x60");
        const auto side = [&](std::size_t k) {
            const std::optional<long long> parsed = util::parse_int(parts[k]);
            return parsed ? util::to_int(static_cast<double>(*parsed)) : std::nullopt;
        };
        const std::optional<int> w = side(0);
        const std::optional<int> h = side(1);
        LEQA_REQUIRE(w && h && *w > 0 && *h > 0, "--fabric expects positive integers in int range");
        params.width = *w;
        params.height = *h;
    }
    if (parser.option_given("topology")) {
        params.topology = fabric::parse_topology_kind(parser.option("topology"));
        if (params.topology == fabric::TopologyKind::Line && !fabric_given &&
            !parser.option_given("params") && params.height != 1) {
            // Convenience: `--topology line` with the built-in default
            // geometry flattens it to the area-equivalent row.  Geometry
            // the user chose (--fabric or --params) is never rewritten;
            // validate() rejects it below if it is not a row.
            params.width = static_cast<int>(static_cast<long long>(params.width) *
                                            params.height);
            params.height = 1;
        }
    }
    if (parser.option_given("nc")) {
        const std::optional<int> nc = util::to_int(static_cast<double>(parser.option_int("nc")));
        LEQA_REQUIRE(nc.has_value(), "--nc is outside int range");
        params.nc = *nc;
    }
    if (parser.option_given("v")) params.v = parser.option_double("v");
    if (parser.option_given("tmove")) params.t_move_us = parser.option_double("tmove");
    params.validate();
    return params;
}

} // namespace leqa::pipeline
