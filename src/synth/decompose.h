/// \file decompose.h
/// \brief Elementary decomposition building blocks used by FT synthesis.
///
/// These are the per-gate rewrites of the paper's benchmark preparation
/// (§4.1):
///   - n-input Toffoli (n > 3) -> 3-input Toffolis via the "simple method"
///     of Nielsen & Chuang: an AND-chain over fresh ancilla qubits, followed
///     by uncomputation (2(k-1) Toffolis + 1 CNOT, k-1 ancillas for k
///     controls);
///   - n-input Fredkin -> AND-chain + 3-input Fredkin;
///   - 3-input Fredkin -> three 3-input Toffolis (controlled-SWAP expanded
///     like the three-CNOT SWAP);
///   - SWAP -> three CNOTs;
///   - 3-input Toffoli -> the 15-gate {H, T, T-dagger, CNOT} network shown
///     in the paper's Figure 2 (Shende & Markov's CNOT-optimal realization).
///
/// `synthesize_into` at the bottom chains them into the whole FT synthesis
/// over any output that takes qubits and gates.
#pragma once

#include <array>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "synth/ft_synth.h"
#include "util/error.h"

namespace leqa::synth {

// The emitters hand each rewritten gate, in program order, to a `sink`
// callable taking `const circuit::Gate&`; the chain emitters draw fresh |0>
// ancilla indices from an `alloc` callable returning circuit::Qubit.  Both
// are template parameters, so the rewrite inlines into its caller.

/// The 15-gate FT realization of Toffoli(c0, c1 -> t), the one table of
/// the standard CNOT-optimal network (6 CNOT, 7 T/T-dagger, 2 H) depicted
/// in the paper's Figure 2(a).
inline constexpr std::array<circuit::NetworkStep, 15> kToffoliFtNetwork = [] {
    using enum circuit::GateKind;
    constexpr int c0 = 0, c1 = 1, t = 2; // the operand slots
    return std::array<circuit::NetworkStep, 15>{{
        {H, t, t},      {Cnot, c1, t}, {Tdg, t, t},   {Cnot, c0, t},  {T, t, t},
        {Cnot, c1, t},  {Tdg, t, t},   {Cnot, c0, t}, {T, c1, c1},    {T, t, t},
        {Cnot, c0, c1}, {H, t, t},     {T, c0, c0},   {Tdg, c1, c1},  {Cnot, c0, c1},
    }};
}();

/// Emit kToffoliFtNetwork on Toffoli(c0, c1 -> t), gate by gate.
template <class Sink>
void emit_toffoli_ft(circuit::Qubit c0, circuit::Qubit c1, circuit::Qubit t, Sink&& sink) {
    const std::array<circuit::Qubit, 3> slots = {c0, c1, t};
    for (const circuit::NetworkStep& step : kToffoliFtNetwork) sink(step.gate(slots));
}

/// Emit Fredkin(c; a, b) as three Toffolis:
/// Tof(c,a->b) Tof(c,b->a) Tof(c,a->b).
template <class Sink>
void emit_fredkin_as_toffoli(circuit::Qubit c, circuit::Qubit a, circuit::Qubit b,
                             Sink&& sink) {
    // Controlled SWAP = the three-CNOT swap with every CNOT promoted to a
    // Toffoli by the extra control (the paper replaces each 3-input Fredkin
    // by three 3-input Toffolis).
    sink(circuit::make_toffoli(c, a, b));
    sink(circuit::make_toffoli(c, b, a));
    sink(circuit::make_toffoli(c, a, b));
}

/// Emit SWAP(a, b) as three CNOTs.
template <class Sink>
void emit_swap_as_cnot(circuit::Qubit a, circuit::Qubit b, Sink&& sink) {
    sink(circuit::make_cnot(a, b));
    sink(circuit::make_cnot(b, a));
    sink(circuit::make_cnot(a, b));
}

namespace detail {

/// Compute the AND of all controls into a chain of fresh ancillas, returned
/// in allocation order; the last one holds the conjunction.  The chain is
/// Tof(c0,c1->a0), then Tof(c_i, a_{i-2} -> a_{i-1}) for i >= 2.
template <class Alloc, class Sink>
std::vector<circuit::Qubit> emit_and_chain(std::span<const circuit::Qubit> controls,
                                           Alloc&& alloc, Sink&& sink) {
    LEQA_CHECK(controls.size() >= 2, "AND chain needs at least two controls");
    std::vector<circuit::Qubit> chain;
    chain.reserve(controls.size() - 1);
    chain.push_back(alloc());
    sink(circuit::make_toffoli(controls[0], controls[1], chain[0]));
    for (std::size_t i = 2; i < controls.size(); ++i) {
        chain.push_back(alloc());
        sink(circuit::make_toffoli(controls[i], chain[i - 2], chain[i - 1]));
    }
    return chain;
}

/// Uncompute an AND chain: its gates are self-inverse Toffolis, replayed in
/// reverse.
template <class Sink>
void emit_and_unchain(std::span<const circuit::Qubit> controls,
                      std::span<const circuit::Qubit> chain, Sink&& sink) {
    for (std::size_t i = controls.size() - 1; i >= 2; --i) {
        sink(circuit::make_toffoli(controls[i], chain[i - 2], chain[i - 1]));
    }
    sink(circuit::make_toffoli(controls[0], controls[1], chain[0]));
}

} // namespace detail

/// Emit a k-controlled X (k >= 3) as an AND-chain with k-1 fresh ancillas:
/// 2(k-1) Toffolis + 1 CNOT.  Ancillas are uncomputed back to |0>.
template <class Alloc, class Sink>
void emit_mcx_chain(std::span<const circuit::Qubit> controls, circuit::Qubit target,
                    Alloc&& alloc, Sink&& sink) {
    LEQA_REQUIRE(controls.size() >= 3,
                 "emit_mcx_chain: use plain CNOT/Toffoli below three controls");
    const std::vector<circuit::Qubit> chain = detail::emit_and_chain(controls, alloc, sink);
    sink(circuit::make_cnot(chain.back(), target));
    detail::emit_and_unchain(controls, chain, sink);
}

/// Emit a k-controlled SWAP (k >= 2) as an AND-chain plus one 3-input
/// Fredkin on the chain output.  k-1 fresh ancillas, uncomputed.
template <class Alloc, class Sink>
void emit_mcswap_chain(std::span<const circuit::Qubit> controls, circuit::Qubit a,
                       circuit::Qubit b, Alloc&& alloc, Sink&& sink) {
    LEQA_REQUIRE(controls.size() >= 2,
                 "emit_mcswap_chain: use plain Fredkin below two controls");
    const std::vector<circuit::Qubit> chain = detail::emit_and_chain(controls, alloc, sink);
    sink(circuit::make_fredkin(chain.back(), a, b));
    detail::emit_and_unchain(controls, chain, sink);
}

/// Gate-count bookkeeping for the closed-form count checks in the tests:
/// FT op count of one k-controlled X after full synthesis (fresh ancillas):
///   k = 0 -> 1 (X),  k = 1 -> 1 (CNOT),  k = 2 -> 15,
///   k >= 3 -> 2(k-1)*15 + 1.
[[nodiscard]] std::size_t ft_ops_for_mcx(std::size_t num_controls);

/// Ancillas consumed by one k-controlled X:  k >= 3 -> k-1, else 0.
[[nodiscard]] std::size_t ancillas_for_mcx(std::size_t num_controls);

/// FT op count of one k-controlled SWAP after full synthesis:
///   k = 0 (plain SWAP) -> 3,  k = 1 -> 45 (three Toffolis),
///   k >= 2 -> 2(k-1)*15 + 45.
[[nodiscard]] std::size_t ft_ops_for_mcswap(std::size_t num_controls);

/// Ancillas consumed by one k-controlled SWAP:  k >= 2 -> k-1, else 0.
[[nodiscard]] std::size_t ancillas_for_mcswap(std::size_t num_controls);

namespace detail {

/// Allocates ancillas (named anc0, anc1, ...) on `out` either fresh per
/// request or from a reusable pool.  A name the input already uses is
/// rejected here, whatever the output keeps of names.
template <class Out>
class AncillaManager {
public:
    AncillaManager(const circuit::Circuit& input, Out& out, bool share)
        : input_(input), out_(out), share_(share) {}

    /// Start a new gate scope; in sharing mode previously used ancillas
    /// become reusable (they were uncomputed back to |0>).
    void begin_gate() { next_shared_ = 0; }

    circuit::Qubit allocate() {
        if (share_ && next_shared_ < pool_.size()) {
            return pool_[next_shared_++];
        }
        const std::string name = "anc" + std::to_string(total_allocated_);
        LEQA_REQUIRE(!input_.find_qubit(name).has_value(), "duplicate qubit name: " + name);
        const circuit::Qubit q = out_.add_qubit(name);
        ++total_allocated_;
        if (share_) {
            pool_.push_back(q);
            ++next_shared_;
        }
        return q;
    }

    [[nodiscard]] std::size_t total_allocated() const { return total_allocated_; }

private:
    const circuit::Circuit& input_;
    Out& out_;
    bool share_;
    std::vector<circuit::Qubit> pool_;
    std::size_t next_shared_ = 0;
    std::size_t total_allocated_ = 0;
};

} // namespace detail

/// The FT synthesis of ft_synth.h, written to `out` in program order: the
/// input's qubits by name through `out.add_qubit(name)`, then ancillas and
/// FT gates through `add_qubit` and `add_gate(const circuit::Gate&)`, or
/// each lowered Toffoli as one `add_network<kToffoliFtNetwork>` block when
/// `out` has it (`qodg::Qodg::Builder`, which the pipeline runs it into).
/// `out.reserve_gates(n)` gets the predicted op count first, and
/// `out.is_ft()` answers the closing check.  `ft_synthesize` runs it into
/// a Circuit.
template <class Out>
FtSynthStats synthesize_into(const circuit::Circuit& input, const FtSynthOptions& options,
                             Out& out) {
    using circuit::Gate;
    using circuit::GateKind;
    input.validate();

    for (circuit::Qubit q = 0; q < input.num_qubits(); ++q) out.add_qubit(input.qubit_name(q));
    out.reserve_gates(predicted_ft_ops(input));

    detail::AncillaManager<Out> ancillas(input, out, options.share_ancillas);
    FtSynthStats stats;
    stats.input_gates = input.size();
    stats.input_qubits = input.num_qubits();

    // Stage 2: lowers 3-input Toffolis to the FT network unless
    // keep_toffoli is set; everything else is appended as-is.
    const auto lower = [&](const Gate& g) {
        if (g.kind != GateKind::Toffoli || g.controls().size() != 2 || options.keep_toffoli) {
            out.add_gate(g);
            return;
        }
        ++stats.toffolis_lowered;
        const std::array slots = {g.controls()[0], g.controls()[1], g.targets()[0]};
        if constexpr (requires { out.template add_network<kToffoliFtNetwork>(slots); }) {
            out.template add_network<kToffoliFtNetwork>(slots);
        } else {
            emit_toffoli_ft(slots[0], slots[1], slots[2], [&](auto&& op) { out.add_gate(op); });
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
    return stats;
}

} // namespace leqa::synth
