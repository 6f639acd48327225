#include "fabric/params.h"

#include <sstream>

#include "parser/io.h"
#include "util/error.h"
#include "util/strings.h"

namespace leqa::fabric {

TopologyKind parse_topology_kind(const std::string& name) {
    const std::string lowered = util::to_lower(name);
    if (lowered == "grid" || lowered == "mesh") return TopologyKind::Grid;
    if (lowered == "torus") return TopologyKind::Torus;
    if (lowered == "line" || lowered == "row" || lowered == "ion-trap-row") {
        return TopologyKind::Line;
    }
    throw util::InputError("unknown fabric topology: '" + name +
                           "' (expected grid, torus, or line)");
}

std::string topology_kind_name(TopologyKind kind) {
    switch (kind) {
        case TopologyKind::Grid: return "grid";
        case TopologyKind::Torus: return "torus";
        case TopologyKind::Line: return "line";
    }
    return "?";
}

double PhysicalParams::delay_us(circuit::GateKind kind) const {
    using circuit::GateKind;
    switch (kind) {
        case GateKind::H: return d_h_us;
        case GateKind::T:
        case GateKind::Tdg: return d_t_us;
        case GateKind::X:
        case GateKind::Y:
        case GateKind::Z: return d_pauli_us;
        case GateKind::S:
        case GateKind::Sdg: return d_s_us;
        case GateKind::Cnot: return d_cnot_us;
        default:
            throw util::InputError("no FT delay for gate kind '" +
                                   circuit::gate_name(kind) +
                                   "' (run FT synthesis first)");
    }
}

void PhysicalParams::validate() const {
    LEQA_REQUIRE(d_h_us > 0 && d_t_us > 0 && d_pauli_us > 0 && d_s_us > 0 && d_cnot_us > 0,
                 "gate delays must be positive");
    LEQA_REQUIRE(nc >= 1, "channel capacity Nc must be >= 1");
    LEQA_REQUIRE(v > 0, "qubit speed v must be positive");
    LEQA_REQUIRE(width >= 1 && height >= 1, "fabric dimensions must be >= 1");
    LEQA_REQUIRE(t_move_us > 0, "Tmove must be positive");
    LEQA_REQUIRE(topology != TopologyKind::Line || height == 1,
                 "line topology requires height = 1 (got height = " +
                     std::to_string(height) + "); use a " +
                     std::to_string(static_cast<long long>(width) * height) +
                     "x1 fabric for the same area");
}

std::string PhysicalParams::to_config() const {
    std::ostringstream out;
    out << "# TQA physical parameters (all delays in microseconds)\n";
    out << "d_h = " << d_h_us << '\n';
    out << "d_t = " << d_t_us << '\n';
    out << "d_pauli = " << d_pauli_us << '\n';
    out << "d_s = " << d_s_us << '\n';
    out << "d_cnot = " << d_cnot_us << '\n';
    out << "nc = " << nc << '\n';
    out << "v = " << v << '\n';
    out << "width = " << width << '\n';
    out << "height = " << height << '\n';
    out << "t_move = " << t_move_us << '\n';
    out << "topology = " << topology_kind_name(topology) << '\n';
    return out.str();
}

PhysicalParams PhysicalParams::from_config(const std::string& text) {
    PhysicalParams params;
    std::istringstream in(text);
    std::string raw_line;
    std::size_t line_number = 0;
    while (std::getline(in, raw_line)) {
        ++line_number;
        const auto hash = raw_line.find('#');
        const std::string line =
            util::trim(hash == std::string::npos ? raw_line : raw_line.substr(0, hash));
        if (line.empty()) continue;
        const auto eq = line.find('=');
        LEQA_REQUIRE(eq != std::string::npos,
                     "config line " + std::to_string(line_number) + ": expected 'key = value'");
        const std::string key = util::to_lower(util::trim(line.substr(0, eq)));
        const std::string value_text = util::trim(line.substr(eq + 1));
        if (key == "topology") { // the one non-numeric key
            params.topology = parse_topology_kind(value_text);
            continue;
        }
        const auto value = util::parse_double(value_text);
        LEQA_REQUIRE(value.has_value(),
                     "config line " + std::to_string(line_number) + ": bad number '" +
                         value_text + "'");
        const auto whole = [&] {
            const std::optional<int> narrowed = util::to_int(*value);
            LEQA_REQUIRE(narrowed, "config line " + std::to_string(line_number) + ": " + key +
                                       " must be an integer in int range: '" + value_text + "'");
            return *narrowed;
        };
        if (key == "d_h") params.d_h_us = *value;
        else if (key == "d_t") params.d_t_us = *value;
        else if (key == "d_pauli") params.d_pauli_us = *value;
        else if (key == "d_s") params.d_s_us = *value;
        else if (key == "d_cnot") params.d_cnot_us = *value;
        else if (key == "nc") params.nc = whole();
        else if (key == "v") params.v = *value;
        else if (key == "width") params.width = whole();
        else if (key == "height") params.height = whole();
        else if (key == "t_move") params.t_move_us = *value;
        else {
            throw util::InputError("config line " + std::to_string(line_number) +
                                   ": unknown key '" + key + "'");
        }
    }
    params.validate();
    return params;
}

PhysicalParams PhysicalParams::load(const std::string& path) {
    return from_config(parser::read_file(path));
}

void PhysicalParams::save(const std::string& path) const {
    parser::write_file(path, to_config());
}

} // namespace leqa::fabric
