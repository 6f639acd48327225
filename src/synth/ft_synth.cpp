#include "synth/ft_synth.h"

#include <sstream>

#include "synth/decompose.h"
#include "util/error.h"

namespace leqa::synth {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

std::string FtSynthStats::to_string() const {
    std::ostringstream out;
    out << "gates " << input_gates << " -> " << output_gates
        << ", qubits " << input_qubits << " -> " << (input_qubits + ancillas_added)
        << " (+" << ancillas_added << " ancilla)"
        << ", toffolis lowered: " << toffolis_lowered
        << ", fredkins lowered: " << fredkins_lowered
        << ", chains expanded: " << chains_expanded;
    return out.str();
}

FtSynthResult ft_synthesize(const Circuit& input, const FtSynthOptions& options) {
    FtSynthResult result;
    Circuit& out = result.circuit;
    out.set_name(input.name());
    for (const auto& comment : input.comments()) out.add_comment(comment);
    out.add_comment("ft-synthesized (ancilla sharing: " +
                    std::string(options.share_ancillas ? "on" : "off") + ")");
    result.stats = synthesize_into(input, options, out);
    return result;
}

std::size_t predicted_ft_ops(const Circuit& input) {
    std::size_t total = 0;
    for (const Gate& g : input.gates()) {
        switch (g.kind) {
            case GateKind::Toffoli:
                total += ft_ops_for_mcx(g.controls().size());
                break;
            case GateKind::Fredkin:
                total += ft_ops_for_mcswap(g.controls().size());
                break;
            case GateKind::Swap:
                total += 3;
                break;
            default:
                total += 1;
                break;
        }
    }
    return total;
}

std::size_t predicted_ancillas(const Circuit& input) {
    std::size_t total = 0;
    for (const Gate& g : input.gates()) {
        switch (g.kind) {
            case GateKind::Toffoli:
                total += ancillas_for_mcx(g.controls().size());
                break;
            case GateKind::Fredkin:
                total += ancillas_for_mcswap(g.controls().size());
                break;
            default:
                break;
        }
    }
    return total;
}

} // namespace leqa::synth
