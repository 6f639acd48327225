#include "circuit/gate.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace leqa::circuit {

namespace {

struct Alias {
    std::string_view name;
    GateKind kind;
};

constexpr std::array<Alias, 9> kAliases = {{
    {"not", GateKind::X},
    {"cx", GateKind::Cnot},
    {"ccx", GateKind::Toffoli},
    {"ccnot", GateKind::Toffoli},
    {"cswap", GateKind::Fredkin},
    {"t+", GateKind::Tdg},
    {"tdag", GateKind::Tdg},
    {"s+", GateKind::Sdg},
    {"sdag", GateKind::Sdg},
}};

/// True if qubits repeat.  Small operand lists (every inline gate) compare
/// pairwise; only a very wide spilled gate sorts a scratch copy.
bool has_duplicate(std::span<const Qubit> qubits) {
    constexpr std::size_t kPairwiseLimit = 16;
    if (qubits.size() <= kPairwiseLimit) {
        for (std::size_t a = 0; a < qubits.size(); ++a) {
            for (std::size_t b = a + 1; b < qubits.size(); ++b) {
                if (qubits[a] == qubits[b]) return true;
            }
        }
        return false;
    }
    std::vector<Qubit> sorted(qubits.begin(), qubits.end());
    std::sort(sorted.begin(), sorted.end());
    return std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end();
}

} // namespace

std::string gate_name(GateKind kind) { return gate_info(kind).name; }

std::optional<GateKind> find_gate_name(std::string_view name) {
    for (std::size_t i = 0; i < kGateKindCount; ++i) {
        if (util::iequals(name, kGateTable[i].name)) return static_cast<GateKind>(i);
    }
    for (const Alias& alias : kAliases) {
        if (util::iequals(name, alias.name)) return alias.kind;
    }
    return std::nullopt;
}

GateKind parse_gate_name(std::string_view name) {
    if (const auto kind = find_gate_name(name)) return *kind;
    throw util::InputError("unknown gate mnemonic: " + std::string(name));
}

void Gate::spill(std::span<const Qubit> controls, std::span<const Qubit> targets) {
    LEQA_REQUIRE(controls.size() <= std::numeric_limits<std::uint16_t>::max() &&
                     targets.size() <= std::numeric_limits<std::uint8_t>::max(),
                 std::string(gate_info(kind).name) + ": too many operands");
    num_controls_ = static_cast<std::uint16_t>(controls.size());
    num_targets_ = static_cast<std::uint8_t>(targets.size());
    spill_.resize(arity());
    std::copy(targets.begin(), targets.end(),
              std::copy(controls.begin(), controls.end(), spill_.begin()));
}

void Gate::validate_slow() const {
    const GateInfo& info = gate_info(kind);
    const int n_controls = num_controls_;
    const int n_targets = num_targets_;
    LEQA_REQUIRE(n_controls >= info.min_controls,
                 std::string(info.name) + ": too few controls");
    LEQA_REQUIRE(info.max_controls < 0 || n_controls <= info.max_controls,
                 std::string(info.name) + ": too many controls");
    LEQA_REQUIRE(n_targets == info.targets,
                 std::string(info.name) + ": wrong number of targets");
    LEQA_REQUIRE(!has_duplicate(qubits()), std::string(info.name) + ": duplicate qubit operand");
}

void Gate::throw_out_of_range(Qubit q, std::size_t num_qubits) {
    // The message in LEQA_REQUIRE's form, like every other check's.
    throw util::InputError("requirement failed: qubit index " + std::to_string(q) +
                           " out of range (circuit has " + std::to_string(num_qubits) +
                           " qubits)");
}

std::string Gate::to_string() const {
    std::ostringstream out;
    out << gate_name(kind);
    bool first = true;
    for (const Qubit q : controls()) {
        out << (first ? " q" : ", q") << q;
        first = false;
    }
    if (num_controls_ > 0) out << " ->";
    first = true;
    for (const Qubit q : targets()) {
        out << (first ? " q" : ", q") << q;
        first = false;
    }
    return out.str();
}

Gate make_mcx(std::span<const Qubit> controls, Qubit target) {
    const Qubit t[] = {target};
    return Gate(controls.size() == 1 ? GateKind::Cnot : GateKind::Toffoli, controls, t);
}

Gate make_fredkin(Qubit control, Qubit a, Qubit b) {
    const Qubit c[] = {control};
    return make_mcswap(c, a, b);
}

Gate make_mcswap(std::span<const Qubit> controls, Qubit a, Qubit b) {
    const Qubit t[] = {a, b};
    return Gate(GateKind::Fredkin, controls, t);
}

Gate make_swap(Qubit a, Qubit b) {
    const Qubit t[] = {a, b};
    return Gate(GateKind::Swap, {}, t);
}

} // namespace leqa::circuit
