#include "core/optimize.h"

#include <cmath>
#include <utility>

#include "core/placed.h"
#include "util/error.h"
#include "util/rng.h"
#include "util/stopwatch.h"

namespace leqa::core {

OptimizeMode parse_optimize_mode(const std::string& name) {
    if (name == "anneal") return OptimizeMode::Anneal;
    if (name == "greedy") return OptimizeMode::Greedy;
    throw util::InputError("unknown optimize mode '" + name +
                           "' (expected anneal or greedy)");
}

std::string optimize_mode_name(OptimizeMode mode) {
    return mode == OptimizeMode::Anneal ? "anneal" : "greedy";
}

OptimizeResult optimize_placement(const qodg::Qodg& graph,
                                  const circuit::Circuit& circ,
                                  const fabric::PhysicalParams& params,
                                  std::vector<fabric::UlbId> initial_homes,
                                  const OptimizeOptions& options,
                                  const std::function<void()>& between_moves) {
    LEQA_REQUIRE(options.max_moves >= 1, "move budget must be >= 1");
    LEQA_REQUIRE(options.max_seconds >= 0.0, "time budget must be >= 0");

    const util::Stopwatch clock;
    PlacedTimer timer(graph, circ, params, std::move(initial_homes));

    OptimizeResult result;
    result.initial_homes = timer.homes();
    result.homes = timer.homes();
    result.initial_latency_us = timer.latency_us();
    result.final_latency_us = timer.latency_us();

    const std::size_t nq = timer.num_qubits();
    std::vector<fabric::UlbId> free_ulbs;
    for (std::size_t ulb = 0; ulb < timer.num_ulbs(); ++ulb) {
        const auto id = static_cast<fabric::UlbId>(ulb);
        if (timer.occupant(id) == PlacedTimer::kNoQubit) free_ulbs.push_back(id);
    }
    const bool can_swap = nq >= 2;
    const bool can_relocate = nq >= 1 && !free_ulbs.empty();
    if (!can_swap && !can_relocate) {
        result.seconds = clock.seconds();
        return result;
    }

    util::Rng rng(options.seed);
    double latency = timer.latency_us();
    double best_latency = latency;

    // Geometric cooling from T0 to T_end (fractions of the initial latency)
    // over the move budget; a pure function of the move index, so runs are
    // replayable.  A candidate relocates to a free ULB (vs swapping) with
    // probability kRelocateFraction.
    constexpr double kInitialTemperatureFrac = 0.02;
    constexpr double kFinalTemperatureFrac = 1e-5;
    constexpr double kRelocateFraction = 0.25;
    const double t0 = kInitialTemperatureFrac * result.initial_latency_us;
    const double t_end = kFinalTemperatureFrac * result.initial_latency_us;
    const double cool = (options.max_moves > 1 && t0 > 0.0 && t_end > 0.0)
                            ? std::pow(t_end / t0,
                                       1.0 / static_cast<double>(options.max_moves - 1))
                            : 1.0;
    const bool anneal = options.mode == OptimizeMode::Anneal;
    double temperature = t0;

    for (std::size_t move = 0; move < options.max_moves; ++move, temperature *= cool) {
        if ((move & 255u) == 0u) {
            if (between_moves) between_moves();
            if (options.max_seconds > 0.0 && clock.seconds() >= options.max_seconds) {
                break;
            }
        }
        ++result.moves_attempted;

        const bool relocate =
            can_relocate && (!can_swap || rng.uniform() < kRelocateFraction);
        // The Metropolis u is drawn before the bound screen: rejecting on
        // the bound with the same u the full test would use keeps the
        // accept distribution identical to a screen-free search.
        const double u = rng.uniform();

        std::size_t q1 = 0;
        std::size_t q2 = 0;
        std::size_t free_index = 0;
        fabric::UlbId from = 0;
        fabric::UlbId to = 0;
        double bound = 0.0;
        if (relocate) {
            q1 = rng.index(nq);
            free_index = rng.index(free_ulbs.size());
            from = timer.homes()[q1];
            to = free_ulbs[free_index];
            bound = timer.relocate_lower_bound(q1, to);
        } else {
            q1 = rng.index(nq);
            q2 = rng.index(nq - 1);
            if (q2 >= q1) ++q2;
            bound = timer.swap_lower_bound(q1, q2);
        }

        const double bound_delta = bound - latency;
        if (anneal ? (bound_delta > 0.0 &&
                      (temperature <= 0.0 ||
                       u >= std::exp(-bound_delta / temperature)))
                   : bound_delta >= 0.0) {
            ++result.moves_fast_rejected;
            continue;
        }

        const double moved = relocate ? timer.apply_relocate(q1, to)
                                      : timer.apply_swap(q1, q2);
        result.nodes_retimed += timer.last_retimed_nodes();
        const double delta = moved - latency;
        const bool accept =
            anneal ? (delta <= 0.0 ||
                      (temperature > 0.0 && u < std::exp(-delta / temperature)))
                   : delta < 0.0;
        if (accept) {
            ++result.moves_accepted;
            latency = moved;
            if (relocate) free_ulbs[free_index] = from;
            if (latency < best_latency) {
                best_latency = latency;
                result.homes = timer.homes();
            }
        } else {
            // The inverse move restores every arrival bit-for-bit.
            (void)(relocate ? timer.apply_relocate(q1, from)
                            : timer.apply_swap(q1, q2));
            result.nodes_retimed += timer.last_retimed_nodes();
        }
    }

    // Debug stage-boundary contract: after the whole move sequence the
    // incremental timer still agrees bit-for-bit with a from-scratch
    // evaluation (compiled out of Release).
    LEQA_DCHECK_OK(timer.audit());

    result.final_latency_us = best_latency;
    result.improved = best_latency < result.initial_latency_us;
    result.seconds = clock.seconds();
    return result;
}

} // namespace leqa::core
