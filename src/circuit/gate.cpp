#include "circuit/gate.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "util/error.h"
#include "util/strings.h"

namespace leqa::circuit {

namespace {
// Indexed by GateKind.  max_controls == -1 means unbounded.
constexpr std::array<GateInfo, kGateKindCount> kGateTable = {{
    /* X       */ {"x", 0, 0, 1, true, true, true},
    /* Y       */ {"y", 0, 0, 1, true, false, true},
    /* Z       */ {"z", 0, 0, 1, true, false, true},
    /* H       */ {"h", 0, 0, 1, true, false, true},
    /* S       */ {"s", 0, 0, 1, true, false, false},
    /* Sdg     */ {"sdg", 0, 0, 1, true, false, false},
    /* T       */ {"t", 0, 0, 1, true, false, false},
    /* Tdg     */ {"tdg", 0, 0, 1, true, false, false},
    /* Cnot    */ {"cnot", 1, 1, 1, true, true, true},
    /* Toffoli */ {"toffoli", 1, -1, 1, false, true, true},
    /* Fredkin */ {"fredkin", 1, -1, 2, false, true, true},
    /* Swap    */ {"swap", 0, 0, 2, false, true, true},
}};

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

const GateInfo& gate_info(GateKind kind) {
    return kGateTable[static_cast<std::size_t>(kind)];
}

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

Gate::Gate(GateKind k, std::span<const Qubit> controls, std::span<const Qubit> targets)
    : kind(k) {
    LEQA_REQUIRE(controls.size() <= std::numeric_limits<std::uint16_t>::max() &&
                     targets.size() <= std::numeric_limits<std::uint8_t>::max(),
                 std::string(gate_info(k).name) + ": too many operands");
    num_controls_ = static_cast<std::uint16_t>(controls.size());
    num_targets_ = static_cast<std::uint8_t>(targets.size());
    Qubit* out = inline_.data();
    if (arity() > kInlineQubits) {
        spill_.resize(arity());
        out = spill_.data();
    }
    std::copy(targets.begin(), targets.end(), std::copy(controls.begin(), controls.end(), out));
}

bool Gate::is_ft() const { return gate_info(kind).is_ft; }

void Gate::validate() const {
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

void Gate::validate_against(std::size_t num_qubits) const {
    validate();
    for (const Qubit q : qubits()) {
        LEQA_REQUIRE(q < num_qubits,
                     "qubit index " + std::to_string(q) + " out of range (circuit has " +
                         std::to_string(num_qubits) + " qubits)");
    }
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

namespace {
Gate one_qubit(GateKind kind, Qubit q) {
    const Qubit target[] = {q};
    return Gate(kind, {}, target);
}
} // namespace

Gate make_x(Qubit q) { return one_qubit(GateKind::X, q); }
Gate make_y(Qubit q) { return one_qubit(GateKind::Y, q); }
Gate make_z(Qubit q) { return one_qubit(GateKind::Z, q); }
Gate make_h(Qubit q) { return one_qubit(GateKind::H, q); }
Gate make_s(Qubit q) { return one_qubit(GateKind::S, q); }
Gate make_sdg(Qubit q) { return one_qubit(GateKind::Sdg, q); }
Gate make_t(Qubit q) { return one_qubit(GateKind::T, q); }
Gate make_tdg(Qubit q) { return one_qubit(GateKind::Tdg, q); }

Gate make_cnot(Qubit control, Qubit target) {
    const Qubit c[] = {control};
    const Qubit t[] = {target};
    return Gate(GateKind::Cnot, c, t);
}

Gate make_toffoli(Qubit c0, Qubit c1, Qubit target) {
    const Qubit c[] = {c0, c1};
    const Qubit t[] = {target};
    return Gate(GateKind::Toffoli, c, t);
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
