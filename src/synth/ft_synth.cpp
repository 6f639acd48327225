#include "synth/ft_synth.h"

#include <sstream>

#include "synth/decompose.h"
#include "util/error.h"

namespace leqa::synth {

using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using circuit::Qubit;

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

namespace {

/// Allocates ancillas (named anc0, anc1, ...) either fresh per request or
/// from a reusable pool.
class AncillaManager {
public:
    AncillaManager(Circuit& circ, bool share) : circ_(circ), share_(share) {}

    /// Start a new gate scope; in sharing mode previously used ancillas
    /// become reusable (they were uncomputed back to |0>).
    void begin_gate() { next_shared_ = 0; }

    Qubit allocate() {
        if (share_ && next_shared_ < pool_.size()) {
            return pool_[next_shared_++];
        }
        const Qubit q = circ_.add_qubit("anc" + std::to_string(total_allocated_));
        ++total_allocated_;
        if (share_) {
            pool_.push_back(q);
            ++next_shared_;
        }
        return q;
    }

    [[nodiscard]] std::size_t total_allocated() const { return total_allocated_; }

private:
    Circuit& circ_;
    bool share_;
    std::vector<Qubit> pool_;
    std::size_t next_shared_ = 0;
    std::size_t total_allocated_ = 0;
};

} // namespace

FtSynthResult ft_synthesize(const Circuit& input, const FtSynthOptions& options) {
    input.validate();

    FtSynthResult result;
    Circuit& out = result.circuit;
    out.set_name(input.name());
    for (const auto& comment : input.comments()) out.add_comment(comment);
    out.add_comment("ft-synthesized (ancilla sharing: " +
                    std::string(options.share_ancillas ? "on" : "off") + ")");
    for (Qubit q = 0; q < input.num_qubits(); ++q) out.add_qubit(input.qubit_name(q));
    out.reserve_gates(predicted_ft_ops(input));

    AncillaManager ancillas(out, options.share_ancillas);
    FtSynthStats& stats = result.stats;
    stats.input_gates = input.size();
    stats.input_qubits = input.num_qubits();

    const auto emit = [&out](const Gate& g) { out.add_gate(g); };

    // Stage 2: lowers 3-input Toffolis to the FT network unless
    // keep_toffoli is set; everything else is appended as-is.
    const auto lower = [&](const Gate& g) {
        if (g.kind == GateKind::Toffoli && g.controls().size() == 2 && !options.keep_toffoli) {
            ++stats.toffolis_lowered;
            emit_toffoli_ft(g.controls()[0], g.controls()[1], g.targets()[0], emit);
        } else {
            out.add_gate(g);
        }
    };

    // Stage 1: 3-input Fredkin -> three Toffolis, then stage 2.
    const auto stage1 = [&](const Gate& g) {
        if (g.kind == GateKind::Fredkin && g.controls().size() == 1) {
            ++stats.fredkins_lowered;
            emit_fredkin_as_toffoli(g.controls()[0], g.targets()[0], g.targets()[1], lower);
        } else {
            lower(g);
        }
    };

    const auto alloc = [&ancillas] { return ancillas.allocate(); };

    for (const Gate& g : input.gates()) {
        ancillas.begin_gate();
        switch (g.kind) {
            case GateKind::X:
            case GateKind::Y:
            case GateKind::Z:
            case GateKind::H:
            case GateKind::S:
            case GateKind::Sdg:
            case GateKind::T:
            case GateKind::Tdg:
            case GateKind::Cnot:
                out.add_gate(g);
                break;
            case GateKind::Swap:
                emit_swap_as_cnot(g.targets()[0], g.targets()[1], stage1);
                break;
            case GateKind::Toffoli:
                if (g.controls().size() <= 2) {
                    stage1(g);
                } else {
                    ++stats.chains_expanded;
                    emit_mcx_chain(g.controls(), g.targets()[0], alloc, stage1);
                }
                break;
            case GateKind::Fredkin:
                if (g.controls().size() == 1) {
                    stage1(g);
                } else {
                    ++stats.chains_expanded;
                    emit_mcswap_chain(g.controls(), g.targets()[0], g.targets()[1], alloc,
                                      stage1);
                }
                break;
        }
    }

    stats.output_gates = out.size();
    stats.ancillas_added = ancillas.total_allocated();
    if (!options.keep_toffoli) {
        LEQA_CHECK(out.is_ft(), "ft_synthesize produced a non-FT gate");
    }
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
