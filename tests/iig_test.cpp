// Tests for the interaction intensity graph: the pair sort, weights,
// degrees, zone areas (Eq. 6), and the weighted average zone area B
// (Eq. 7).
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "iig/iig.h"
#include "util/error.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace li = leqa::iig;

using Pairs = std::vector<std::pair<lc::Qubit, lc::Qubit>>;

TEST(Iig, FromPairsAccumulatesEitherOrientation) {
    const Pairs pairs{{0, 1}, {1, 0}, {2, 0}, {3, 2}};
    const li::Iig iig(4, pairs);
    EXPECT_EQ(iig.num_qubits(), 4u);
    EXPECT_EQ(iig.num_edges(), 3u);
    EXPECT_EQ(iig.edge_weight(0, 1), 2u);
    EXPECT_EQ(iig.edge_weight(1, 0), 2u);
    EXPECT_EQ(iig.edge_weight(2, 3), 1u);
    EXPECT_EQ(iig.edge_weight(1, 3), 0u);
    EXPECT_EQ(iig.degree(0), 2u);
    EXPECT_EQ(iig.adjacent_weight(0), 3u);
}

TEST(Iig, FromPairsEdgesSortedUnique) {
    const Pairs pairs{{3, 1}, {1, 3}, {0, 2}, {1, 2}, {5, 2}, {2, 7}, {7, 2}};
    const li::Iig iig(8, pairs);
    const auto& edges = iig.edges();
    ASSERT_EQ(edges.size(), 5u);
    for (std::size_t k = 0; k + 1 < edges.size(); ++k) {
        EXPECT_TRUE(edges[k].i < edges[k + 1].i ||
                    (edges[k].i == edges[k + 1].i && edges[k].j < edges[k + 1].j));
    }
    for (const auto& e : edges) {
        EXPECT_LT(e.i, e.j);
        EXPECT_EQ(iig.edge_weight(e.i, e.j), e.weight);
    }
    EXPECT_EQ(iig.edge_weight(2, 7), 2u);
    EXPECT_EQ(iig.degree(2), 4u); // 0, 1, 5, 7
    EXPECT_EQ(iig.adjacent_weight(2), 5u);
}

TEST(Iig, FromPairsRejectsOutOfRangeAndSelfLoops) {
    EXPECT_THROW((void)li::Iig(3, Pairs{{0, 3}}), leqa::util::InputError);
    EXPECT_THROW((void)li::Iig(3, Pairs{{4, 1}}), leqa::util::InputError);
    EXPECT_THROW((void)li::Iig(3, Pairs{{1, 1}}), leqa::util::InputError);
    EXPECT_THROW((void)li::Iig(0, Pairs{{0, 1}}), leqa::util::InputError);
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
    EXPECT_EQ(iig.edge_weight(0, 1), 2u);
    EXPECT_EQ(iig.edge_weight(1, 0), 2u); // undirected
    EXPECT_EQ(iig.edge_weight(0, 2), 1u);
    EXPECT_EQ(iig.edge_weight(1, 2), 0u);
    EXPECT_EQ(iig.degree(0), 2u);
    EXPECT_EQ(iig.degree(1), 1u);
    EXPECT_EQ(iig.adjacent_weight(0), 3u);
    EXPECT_EQ(iig.adjacent_weight(1), 2u);
}

TEST(Iig, SelfLoopQueryRejected) {
    const lc::Circuit circ(2);
    const li::Iig iig(circ);
    EXPECT_THROW((void)iig.edge_weight(1, 1), leqa::util::InputError);
    EXPECT_THROW((void)iig.edge_weight(0, 2), leqa::util::InputError);
    EXPECT_THROW((void)iig.degree(2), leqa::util::InputError);
    EXPECT_THROW((void)iig.adjacent_weight(2), leqa::util::InputError);
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
    std::uint64_t edge_sum = 0;
    for (const auto& e : iig.edges()) edge_sum += e.weight;
    EXPECT_EQ(edge_sum, 100u);
    EXPECT_EQ(iig.total_adjacent_weight(), 200u);
}

TEST(Iig, SwapCountsAsTwoQubitInteraction) {
    lc::Circuit circ(2);
    circ.swap(0, 1);
    const li::Iig iig(circ);
    EXPECT_EQ(iig.edge_weight(0, 1), 1u);
}

TEST(Iig, MultiQubitGatesAddAllPairs) {
    // Pre-FT-synthesis circuits may contain Toffolis; the documented
    // generalization adds weight to every touched pair.
    lc::Circuit circ(3);
    circ.toffoli(0, 1, 2);
    const li::Iig iig(circ);
    EXPECT_EQ(iig.num_edges(), 3u);
    EXPECT_EQ(iig.edge_weight(0, 1), 1u);
    EXPECT_EQ(iig.edge_weight(0, 2), 1u);
    EXPECT_EQ(iig.edge_weight(1, 2), 1u);
}

TEST(Iig, EdgesSortedAndConsistent) {
    leqa::util::Rng rng(23);
    lc::Circuit circ(10);
    for (int g = 0; g < 50; ++g) {
        const auto picks = rng.sample_without_replacement(10, 2);
        circ.cnot(static_cast<lc::Qubit>(picks[0]), static_cast<lc::Qubit>(picks[1]));
    }
    const li::Iig iig(circ);
    const auto& edges = iig.edges();
    for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
        EXPECT_TRUE(edges[i].i < edges[i + 1].i ||
                    (edges[i].i == edges[i + 1].i && edges[i].j < edges[i + 1].j));
    }
    for (const auto& e : edges) {
        EXPECT_LT(e.i, e.j);
        EXPECT_EQ(iig.edge_weight(e.i, e.j), e.weight);
    }
}

TEST(Iig, DotExport) {
    lc::Circuit circ(2);
    circ.cnot(0, 1);
    const li::Iig iig(circ);
    const std::string dot = iig.to_dot(circ);
    EXPECT_NE(dot.find("graph iig"), std::string::npos);
    EXPECT_NE(dot.find("--"), std::string::npos);
    EXPECT_NE(dot.find("label=\"1\""), std::string::npos);
}
