// Tests for the interaction intensity graph: M_i, W_i and |E| against a
// std::map oracle (random pair sets, circuits, every bench-suite circuit
// through the QODG's tape), zone areas (Eq. 6), and the weighted average
// zone area B (Eq. 7).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "benchgen/suite.h"
#include "iig/iig.h"
#include "qodg/qodg.h"
#include "synth/decompose.h"
#include "util/error.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace li = leqa::iig;

using Pairs = std::vector<std::pair<lc::Qubit, lc::Qubit>>;

namespace {

/// The IIG as an edge map: weight per unordered pair (i < j).  It is also
/// a synthesis output (synth::synthesize_into), so it can read the FT
/// gates themselves, never the tape it checks.
class Oracle {
public:
    explicit Oracle(std::size_t num_qubits = 0) : num_qubits_(num_qubits) {}

    void add(lc::Qubit a, lc::Qubit b) { ++weight_[std::minmax(a, b)]; }

    lc::Qubit add_qubit(std::string_view /*name*/ = {}) {
        return static_cast<lc::Qubit>(num_qubits_++);
    }
    /// Every operand pair of a gate, as the IIG defines them.
    void add_gate(const lc::Gate& gate) {
        const std::span<const lc::Qubit> qubits = gate.qubits();
        for (std::size_t a = 0; a < qubits.size(); ++a) {
            for (std::size_t b = a + 1; b < qubits.size(); ++b) add(qubits[a], qubits[b]);
        }
        is_ft_ = is_ft_ && gate.is_ft();
        ++size_;
    }
    void reserve_gates(std::size_t /*gates*/) {}
    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool is_ft() const { return is_ft_; }

    /// Expect \p iig to hold this graph's M_i, W_i and |E|.
    void expect_matches(const li::Iig& iig, const std::string& what) const {
        std::vector<std::size_t> degree(num_qubits_, 0);
        std::vector<std::uint64_t> weight(num_qubits_, 0);
        for (const auto& [pair, w] : weight_) {
            ++degree[pair.first];
            ++degree[pair.second];
            weight[pair.first] += w;
            weight[pair.second] += w;
        }
        ASSERT_EQ(iig.num_qubits(), num_qubits_) << what;
        EXPECT_EQ(iig.num_edges(), weight_.size()) << what;
        for (lc::Qubit q = 0; q < num_qubits_; ++q) {
            EXPECT_EQ(iig.degree(q), degree[q]) << what << " qubit " << q;
            EXPECT_EQ(iig.adjacent_weight(q), weight[q]) << what << " qubit " << q;
        }
    }

private:
    std::size_t num_qubits_;
    std::size_t size_ = 0;
    bool is_ft_ = true;
    std::map<std::pair<lc::Qubit, lc::Qubit>, std::uint64_t> weight_;
};

} // namespace

TEST(Iig, FromPairsAccumulatesEitherOrientation) {
    const Pairs pairs{{0, 1}, {1, 0}, {2, 0}, {3, 2}};
    const li::Iig iig(4, pairs);
    EXPECT_EQ(iig.num_qubits(), 4u);
    EXPECT_EQ(iig.num_edges(), 3u);
    EXPECT_EQ(iig.degree(0), 2u);
    EXPECT_EQ(iig.adjacent_weight(0), 3u);
    EXPECT_EQ(iig.degree(1), 1u);
    EXPECT_EQ(iig.adjacent_weight(1), 2u);
    EXPECT_EQ(iig.degree(3), 1u);
    EXPECT_EQ(iig.adjacent_weight(3), 1u);
}

TEST(Iig, FromPairsCountsDistinctPartners) {
    const Pairs pairs{{3, 1}, {1, 3}, {0, 2}, {1, 2}, {5, 2}, {2, 7}, {7, 2}};
    const li::Iig iig(8, pairs);
    EXPECT_EQ(iig.num_edges(), 5u);
    EXPECT_EQ(iig.degree(2), 4u); // 0, 1, 5, 7
    EXPECT_EQ(iig.adjacent_weight(2), 5u);
    EXPECT_EQ(iig.degree(4), 0u); // isolated
    EXPECT_EQ(iig.adjacent_weight(6), 0u);
}

TEST(Iig, RandomPairSetsMatchTheOracle) {
    leqa::util::Rng rng(29);
    for (int round = 0; round < 60; ++round) {
        // The top `isolated` qubits take part in no pair.
        const std::size_t num_qubits = 2 + rng.index(40);
        const std::size_t isolated = rng.index(num_qubits - 1);
        const std::size_t live = num_qubits - isolated;
        Pairs pairs;
        Oracle oracle(num_qubits);
        const std::size_t count = rng.index(200);
        for (std::size_t k = 0; k < count; ++k) {
            const auto a = static_cast<lc::Qubit>(rng.index(live));
            auto b = static_cast<lc::Qubit>(rng.index(live - 1));
            if (b >= a) ++b;
            pairs.emplace_back(a, b);
            oracle.add(a, b);
            if (rng.index(3) == 0) { // repeat, in either orientation
                pairs.emplace_back(b, a);
                oracle.add(b, a);
            }
        }
        oracle.expect_matches(li::Iig(num_qubits, pairs), "round " + std::to_string(round));
    }
    Oracle(0).expect_matches(li::Iig(0, Pairs{}), "no qubits");
    Oracle(5).expect_matches(li::Iig(5, Pairs{}), "no pairs");
}

TEST(Iig, FromPairsRejectsOutOfRangeAndSelfLoops) {
    EXPECT_THROW((void)li::Iig(3, Pairs{{0, 3}}), leqa::util::InputError);
    EXPECT_THROW((void)li::Iig(3, Pairs{{4, 1}}), leqa::util::InputError);
    EXPECT_THROW((void)li::Iig(3, Pairs{{1, 1}}), leqa::util::InputError);
    EXPECT_THROW((void)li::Iig(0, Pairs{{0, 1}}), leqa::util::InputError);
    EXPECT_THROW((void)li::Iig(3, Pairs{{0, 1}, {2, 2}}), leqa::util::InputError);
    const li::Iig empty(0, Pairs{});
    EXPECT_EQ(empty.num_qubits(), 0u);
    EXPECT_DOUBLE_EQ(empty.average_zone_area(), 1.0);
}

TEST(Iig, EmptyCircuit) {
    const lc::Circuit circ(3);
    const li::Iig iig(circ);
    EXPECT_EQ(iig.num_qubits(), 3u);
    EXPECT_EQ(iig.num_edges(), 0u);
    EXPECT_EQ(iig.degree(0), 0u);
    EXPECT_DOUBLE_EQ(iig.zone_area(0), 1.0);       // B_i = M_i + 1 = 1
    EXPECT_DOUBLE_EQ(iig.average_zone_area(), 1.0); // no-interaction fallback
}

TEST(Iig, OneQubitGatesAddNoEdges) {
    lc::Circuit circ(2);
    circ.h(0).t(0).x(1).tdg(1);
    const li::Iig iig(circ);
    EXPECT_EQ(iig.num_edges(), 0u);
    EXPECT_EQ(iig.total_adjacent_weight(), 0u);
}

TEST(Iig, WeightsCountTwoQubitOps) {
    lc::Circuit circ(3);
    circ.cnot(0, 1).cnot(1, 0).cnot(0, 2); // (0,1) twice, (0,2) once
    const li::Iig iig(circ);
    EXPECT_EQ(iig.num_edges(), 2u);
    EXPECT_EQ(iig.degree(0), 2u);
    EXPECT_EQ(iig.degree(1), 1u);
    EXPECT_EQ(iig.degree(2), 1u);
    EXPECT_EQ(iig.adjacent_weight(0), 3u);
    EXPECT_EQ(iig.adjacent_weight(1), 2u);
    EXPECT_EQ(iig.adjacent_weight(2), 1u);
}

TEST(Iig, QueryOutOfRangeRejected) {
    const lc::Circuit circ(2);
    const li::Iig iig(circ);
    EXPECT_THROW((void)iig.degree(2), leqa::util::InputError);
    EXPECT_THROW((void)iig.adjacent_weight(2), leqa::util::InputError);
    EXPECT_THROW((void)iig.zone_area(2), leqa::util::InputError);
}

TEST(Iig, ZoneAreaEquation6) {
    lc::Circuit circ(4);
    circ.cnot(0, 1).cnot(0, 2).cnot(0, 3); // qubit 0 has M = 3
    const li::Iig iig(circ);
    EXPECT_DOUBLE_EQ(iig.zone_area(0), 4.0); // M + 1
    EXPECT_DOUBLE_EQ(iig.zone_area(1), 2.0);
}

TEST(Iig, AverageZoneAreaEquation7) {
    // Star: center qubit 0 interacts once with each of 3 leaves.
    // W_0 = 3, B_0 = 4; W_leaf = 1, B_leaf = 2.
    // B = (3*4 + 3*(1*2)) / (3 + 3) = 18/6 = 3.
    lc::Circuit circ(4);
    circ.cnot(0, 1).cnot(0, 2).cnot(0, 3);
    const li::Iig iig(circ);
    EXPECT_DOUBLE_EQ(iig.average_zone_area(), 3.0);
}

TEST(Iig, WeightedAverageFavorsHeavyQubits) {
    // Pair (0,1) with weight 10 (B_i = 2 each); pair (2,3),(2,4),(3,4)
    // forming a triangle with weight 1 each (B_i = 3 each).
    lc::Circuit circ(5);
    for (int i = 0; i < 10; ++i) circ.cnot(0, 1);
    circ.cnot(2, 3).cnot(2, 4).cnot(3, 4);
    const li::Iig iig(circ);
    // Weighted: (10*2 + 10*2 + 2*3 + 2*3 + 2*3) / (10 + 10 + 2 + 2 + 2)
    //         = (40 + 18) / 26 = 58/26.
    EXPECT_NEAR(iig.average_zone_area(), 58.0 / 26.0, 1e-12);
}

TEST(Iig, TotalAdjacentWeightIsTwiceEdgeWeight) {
    leqa::util::Rng rng(17);
    lc::Circuit circ(8);
    for (int g = 0; g < 100; ++g) {
        const auto picks = rng.sample_without_replacement(8, 2);
        circ.cnot(static_cast<lc::Qubit>(picks[0]), static_cast<lc::Qubit>(picks[1]));
    }
    const li::Iig iig(circ);
    EXPECT_EQ(iig.total_adjacent_weight(), 200u);
}

TEST(Iig, SwapCountsAsTwoQubitInteraction) {
    lc::Circuit circ(2);
    circ.swap(0, 1);
    const li::Iig iig(circ);
    EXPECT_EQ(iig.num_edges(), 1u);
    EXPECT_EQ(iig.degree(0), 1u);
    EXPECT_EQ(iig.adjacent_weight(1), 1u);
}

TEST(Iig, MultiQubitGatesAddAllPairs) {
    // Pre-FT-synthesis circuits may contain Toffolis; the documented
    // generalization adds weight to every touched pair.
    lc::Circuit circ(3);
    circ.toffoli(0, 1, 2);
    const li::Iig iig(circ);
    EXPECT_EQ(iig.num_edges(), 3u);
    for (lc::Qubit q = 0; q < 3; ++q) {
        EXPECT_EQ(iig.degree(q), 2u);
        EXPECT_EQ(iig.adjacent_weight(q), 2u);
    }
}

TEST(Iig, CircuitsWithToffoliAndSwapMatchTheOracle) {
    leqa::util::Rng rng(31);
    for (int round = 0; round < 40; ++round) {
        const std::size_t num_qubits = 6 + rng.index(10);
        lc::Circuit circ(num_qubits);
        for (int g = 0; g < 80; ++g) {
            const auto picks = rng.sample_without_replacement(num_qubits, 5);
            const auto q = [&](std::size_t k) { return static_cast<lc::Qubit>(picks[k]); };
            switch (rng.index(7)) {
                case 0: circ.h(q(0)); break;
                case 1: circ.cnot(q(0), q(1)); break;
                case 2: circ.cnot(q(1), q(0)); break;
                case 3: circ.toffoli(q(0), q(1), q(2)); break;
                case 4: circ.swap(q(0), q(1)); break;
                case 5: circ.fredkin(q(0), q(1), q(2)); break;
                default: {
                    const std::vector<lc::Qubit> controls{q(0), q(1), q(2), q(3)};
                    circ.mcx(controls, q(4)); // five operands: a spilled gate
                    break;
                }
            }
        }
        Oracle oracle(num_qubits);
        for (const lc::Gate& gate : circ.gates()) oracle.add_gate(gate);
        const std::string what = "round " + std::to_string(round);
        oracle.expect_matches(li::Iig(circ), what);
        // The tape of the same (pre-FT) circuit keeps its wide ops whole.
        oracle.expect_matches(leqa::qodg::Qodg(circ).interaction_graph(), what + " tape");
    }
}

TEST(Iig, EveryBenchSuiteCircuitThroughTheTape) {
    for (const auto& spec : leqa::benchgen::paper_suite()) {
        const lc::Circuit input = leqa::benchgen::make_benchmark(spec.name);
        leqa::qodg::Qodg::Builder tape;
        (void)leqa::synth::synthesize_into(input, {}, tape);
        Oracle oracle;
        (void)leqa::synth::synthesize_into(input, {}, oracle);
        oracle.expect_matches(leqa::qodg::Qodg(std::move(tape)).interaction_graph(), spec.name);
    }
}
