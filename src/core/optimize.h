/// \file optimize.h
/// \brief Latency-driven placement optimization over the placed timing
///        model (see placed.h).
///
/// `optimize_placement` runs a seeded simulated-annealing (or greedy
/// refinement) search over swap + relocate moves, with `core::PlacedTimer`
/// as the incremental cost evaluator: a candidate move is first screened
/// against the O(1)-per-gate latency lower bound (most non-improving moves
/// die there without touching the graph), survivors are applied through
/// the affected-cone re-timing, and rejected survivors are reverted by
/// applying the inverse move — which restores every arrival bit-for-bit.
///
/// Everything is deterministic for a fixed seed: the move stream comes
/// from `util::Rng` (xoshiro256**, the same generator behind
/// `qspr::PlacementStrategy::Random`), the Metropolis u is drawn *before*
/// the bound screen so the fast path cannot shift the accept distribution,
/// and the cooling schedule is a pure function of the move index.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.h"
#include "fabric/geometry.h"
#include "fabric/params.h"
#include "qodg/qodg.h"

namespace leqa::core {

enum class OptimizeMode {
    Anneal, ///< Metropolis accepts with geometric cooling
    Greedy, ///< strictly-improving moves only
};

[[nodiscard]] OptimizeMode parse_optimize_mode(const std::string& name);
[[nodiscard]] std::string optimize_mode_name(OptimizeMode mode);

struct OptimizeOptions {
    std::size_t max_moves = 20000; ///< candidate-move budget
    double max_seconds = 0.0;      ///< wall-clock budget (0 = unbounded)
    std::uint64_t seed = 1;
    OptimizeMode mode = OptimizeMode::Anneal;

    [[nodiscard]] bool operator==(const OptimizeOptions&) const = default;
};

struct OptimizeResult {
    std::vector<fabric::UlbId> homes;         ///< best placement found
    std::vector<fabric::UlbId> initial_homes; ///< the starting placement
    double initial_latency_us = 0.0;
    double final_latency_us = 0.0; ///< placed latency of `homes`
    bool improved = false;         ///< final < initial (strict)
    std::size_t moves_attempted = 0;
    std::size_t moves_accepted = 0;
    /// Candidates killed by the PlacedTimer bound alone (no re-timing).
    std::size_t moves_fast_rejected = 0;
    /// Total nodes re-relaxed by incremental re-timing (cone-size sum over
    /// applied moves, including reverts).
    std::size_t nodes_retimed = 0;
    double seconds = 0.0;
};

/// Optimize the placement of \p circ (the FT circuit \p graph was built
/// from) on the fabric of \p params, starting from \p initial_homes.
/// \p between_moves, when set, is invoked every few hundred moves — the
/// cancellation hook (it may throw to abort the search).
[[nodiscard]] OptimizeResult optimize_placement(
    const qodg::Qodg& graph, const circuit::Circuit& circ,
    const fabric::PhysicalParams& params, std::vector<fabric::UlbId> initial_homes,
    const OptimizeOptions& options = {},
    const std::function<void()>& between_moves = {});

} // namespace leqa::core
