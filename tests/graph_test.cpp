// Tests for the shared graph substrate: CSR builder semantics (sorting,
// parallel-edge merging, topological flag), the traversal kernels, and
// representation parity — the CSR-backed QODG against an independently
// built nested-vector adjacency on the bench suite.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "benchgen/suite.h"
#include "fabric/params.h"
#include "graph/csr.h"
#include "qodg/qodg.h"
#include "synth/ft_synth.h"
#include "util/error.h"

namespace lg = leqa::graph;
namespace lc = leqa::circuit;
namespace lq = leqa::qodg;

TEST(Csr, EmptyGraph) {
    lg::CsrBuilder builder(0);
    const lg::CsrDigraph g = builder.build();
    EXPECT_EQ(g.num_nodes(), 0u);
    EXPECT_EQ(g.num_edges(), 0u);
}

TEST(Csr, SortsSuccessorsAndMergesParallelEdges) {
    lg::CsrBuilder builder(4);
    builder.add_edge(0, 3);
    builder.add_edge(0, 1);
    builder.add_edge(0, 3); // parallel duplicate
    builder.add_edge(1, 2);
    const lg::CsrDigraph g = builder.build(/*merge_parallel=*/true);
    EXPECT_EQ(g.num_edges(), 3u);
    const auto succ = g.successors(0);
    ASSERT_EQ(succ.size(), 2u);
    EXPECT_EQ(succ[0], 1u);
    EXPECT_EQ(succ[1], 3u);
    EXPECT_EQ(g.out_degree(2), 0u);
}

TEST(Csr, KeepsParallelEdgesWhenAsked) {
    lg::CsrBuilder builder(2);
    builder.add_edge(0, 1);
    builder.add_edge(0, 1);
    EXPECT_EQ(builder.build(/*merge_parallel=*/false).num_edges(), 2u);
}

TEST(Csr, RejectsSelfLoopsAndOutOfRange) {
    lg::CsrBuilder builder(2);
    EXPECT_THROW(builder.add_edge(0, 0), leqa::util::InputError);
    EXPECT_THROW(builder.add_edge(0, 2), leqa::util::InputError);
}

TEST(Csr, TopologicalFlagTracksEdgeDirections) {
    lg::CsrBuilder forward(3);
    forward.add_edge(0, 1);
    forward.add_edge(1, 2);
    EXPECT_TRUE(forward.build().topologically_ordered());

    lg::CsrBuilder backward(3);
    backward.add_edge(2, 1);
    const lg::CsrDigraph g = backward.build();
    EXPECT_FALSE(g.topologically_ordered());
    const std::vector<double> delays(3, 1.0);
    EXPECT_THROW((void)lg::longest_path(g, delays, 0), leqa::util::InputError);
    EXPECT_THROW((void)lg::downstream_delay(g, delays), leqa::util::InputError);
}

TEST(Csr, InDegrees) {
    lg::CsrBuilder builder(4);
    builder.add_edge(0, 1);
    builder.add_edge(0, 2);
    builder.add_edge(1, 3);
    builder.add_edge(2, 3);
    const auto degrees = builder.build().in_degrees();
    ASSERT_EQ(degrees.size(), 4u);
    EXPECT_EQ(degrees[0], 0u);
    EXPECT_EQ(degrees[1], 1u);
    EXPECT_EQ(degrees[3], 2u);
}

TEST(Csr, LongestPathDiamond) {
    // 0 -> {1, 2} -> 3 with a heavy node 2.
    lg::CsrBuilder builder(4);
    builder.add_edge(0, 1);
    builder.add_edge(0, 2);
    builder.add_edge(1, 3);
    builder.add_edge(2, 3);
    const lg::CsrDigraph g = builder.build();
    const std::vector<double> delays{0.0, 1.0, 5.0, 2.0};
    const auto lp = lg::longest_path(g, delays, 0);
    EXPECT_DOUBLE_EQ(lp.distance[3], 7.0);
    const auto path = lg::extract_path(lp, 0, 3);
    ASSERT_EQ(path.size(), 3u);
    EXPECT_EQ(path[1], 2u);

    const auto downstream = lg::downstream_delay(g, delays);
    EXPECT_DOUBLE_EQ(downstream[0], 7.0);
    EXPECT_DOUBLE_EQ(downstream[1], 3.0);
}

TEST(Csr, UnreachableNodesKeepNegativeDistance) {
    lg::CsrBuilder builder(3);
    builder.add_edge(1, 2); // node 0 reaches nothing
    const lg::CsrDigraph g = builder.build();
    const std::vector<double> delays(3, 1.0);
    const auto lp = lg::longest_path(g, delays, 0);
    EXPECT_LT(lp.distance[1], 0.0);
    EXPECT_THROW((void)lg::extract_path(lp, 0, 2), leqa::util::InputError);
}

// ---------------------------------------------------------------- parity --

namespace {

/// The pre-refactor QODG representation, rebuilt independently: nested
/// vector-of-vectors adjacency with per-gate sorted/deduplicated
/// predecessor merging.  The CSR-backed Qodg must match it exactly.
struct ReferenceQodg {
    std::vector<std::vector<lq::NodeId>> out_edges;
    std::size_t edge_count = 0;

    explicit ReferenceQodg(const lc::Circuit& circ) {
        const std::size_t n_gates = circ.size();
        out_edges.resize(n_gates + 2);
        const auto end_id = static_cast<lq::NodeId>(n_gates + 1);
        std::vector<lq::NodeId> last(circ.num_qubits(), 0);
        std::vector<lq::NodeId> preds;
        for (std::size_t i = 0; i < n_gates; ++i) {
            const auto me = static_cast<lq::NodeId>(i + 1);
            const lc::Gate& gate = circ.gate(i);
            preds.clear();
            for (const lc::Qubit q : gate.qubits()) preds.push_back(last[q]);
            std::sort(preds.begin(), preds.end());
            preds.erase(std::unique(preds.begin(), preds.end()), preds.end());
            for (const lq::NodeId p : preds) {
                out_edges[p].push_back(me);
                ++edge_count;
            }
            for (const lc::Qubit q : gate.qubits()) last[q] = me;
        }
        std::vector<lq::NodeId> tails(last.begin(), last.end());
        if (circ.num_qubits() == 0) tails.push_back(0);
        std::sort(tails.begin(), tails.end());
        tails.erase(std::unique(tails.begin(), tails.end()), tails.end());
        for (const lq::NodeId t : tails) {
            out_edges[t].push_back(end_id);
            ++edge_count;
        }
    }

    [[nodiscard]] std::vector<double> longest_distances(
        const std::vector<double>& delays) const {
        std::vector<double> distance(out_edges.size(), -1.0);
        distance[0] = delays[0];
        for (lq::NodeId u = 0; u < out_edges.size(); ++u) {
            if (distance[u] < 0.0) continue;
            for (const lq::NodeId v : out_edges[u]) {
                distance[v] = std::max(distance[v], distance[u] + delays[v]);
            }
        }
        return distance;
    }
};

/// Small-but-structured FT circuits: the smallest real suite entries plus
/// ham3 (Figure 2).
std::vector<lc::Circuit> parity_circuits() {
    std::vector<lc::Circuit> circuits;
    circuits.push_back(leqa::synth::ft_synthesize(leqa::benchgen::ham3()).circuit);
    for (const char* name : {"8bitadder", "gf2^16mult", "hwb15ps"}) {
        circuits.push_back(leqa::benchgen::make_ft_benchmark(name).circuit);
    }
    return circuits;
}

} // namespace

TEST(GraphParity, CsrQodgMatchesNestedVectorReferenceOnBenchSuite) {
    for (const lc::Circuit& circ : parity_circuits()) {
        const lq::Qodg qodg(circ);
        const ReferenceQodg reference(circ);

        // Identical merged edge counts.
        ASSERT_EQ(qodg.num_edges(), reference.edge_count) << circ.name();

        // Identical successor sets node by node.
        for (lq::NodeId u = 0; u < qodg.num_nodes(); ++u) {
            std::vector<lq::NodeId> expected = reference.out_edges[u];
            std::sort(expected.begin(), expected.end());
            const auto actual = qodg.successors(u);
            ASSERT_EQ(std::vector<lq::NodeId>(actual.begin(), actual.end()), expected)
                << circ.name() << " node " << u;
        }

        // Identical longest-path distances under the unit and the FT delay
        // models, and a critical census consistent with the path.
        for (const bool unit : {true, false}) {
            const leqa::fabric::PhysicalParams params;
            const auto delays = qodg.node_delays([&](lc::GateKind kind) {
                return unit ? 1.0 : params.delay_us(kind);
            });
            const auto lp = qodg.longest_path(delays);
            const auto expected = reference.longest_distances(delays);
            ASSERT_EQ(lp.distance.size(), expected.size());
            for (std::size_t u = 0; u < expected.size(); ++u) {
                ASSERT_NEAR(lp.distance[u], expected[u], 1e-9)
                    << circ.name() << " node " << u;
            }

            const auto path = qodg.critical_path(lp);
            const auto census = qodg.census(path);
            double path_delay = 0.0;
            for (const auto id : path) path_delay += delays[id];
            EXPECT_NEAR(path_delay, lp.length, 1e-6) << circ.name();
            std::size_t census_total = 0;
            for (const auto count : census.by_kind) census_total += count;
            EXPECT_EQ(census_total, census.total_ops);
            EXPECT_EQ(census.total_ops, path.size() - 2);
        }
    }
}

TEST(GraphParity, DirectBuiltQodgMatchesCsrBuilderReferenceOnBenchSuite) {
    // The QODG writes its predecessor CSR directly and reverses it; the
    // reference pushes every last-writer edge through CsrBuilder, which
    // sorts and merges them at freeze time.
    std::vector<lc::Circuit> circuits = parity_circuits();
    circuits.push_back(leqa::benchgen::ham3()); // pre-FT: a 3-operand gate
    const lc::Qubit controls[] = {0, 1, 2};
    lc::Circuit four_operand(6); // pre-FT: 4-operand gates between 2- and 3-operand ones
    four_operand.mcx(controls, 3).cnot(3, 4).toffoli(4, 0, 5).mcx(controls, 5).h(1);
    circuits.push_back(four_operand);
    circuits.emplace_back(0);                   // no qubits: start -> end
    for (const lc::Circuit& circ : circuits) {
        const lq::Qodg qodg(circ);
        const std::size_t n_nodes = circ.size() + 2;
        const auto end_id = static_cast<lq::NodeId>(n_nodes - 1);
        lg::CsrBuilder builder(n_nodes);
        std::vector<lq::NodeId> last(circ.num_qubits(), 0);
        for (std::size_t i = 0; i < circ.size(); ++i) {
            const auto me = static_cast<lq::NodeId>(i + 1);
            for (const lc::Qubit q : circ.gate(i).qubits()) builder.add_edge(last[q], me);
            for (const lc::Qubit q : circ.gate(i).qubits()) last[q] = me;
        }
        if (last.empty()) last.push_back(0);
        for (const lq::NodeId t : last) builder.add_edge(t, end_id);
        const lg::CsrDigraph forward = builder.build(/*merge_parallel=*/true);
        const lg::CsrDigraph backward = forward.reversed();

        ASSERT_EQ(qodg.num_nodes(), n_nodes) << circ.name();
        ASSERT_EQ(qodg.num_edges(), forward.num_edges()) << circ.name();
        EXPECT_TRUE(qodg.csr().topologically_ordered());
        for (lq::NodeId u = 0; u < n_nodes; ++u) {
            const auto succ = qodg.successors(u);
            const auto pred = qodg.predecessors(u);
            const auto want_succ = forward.successors(u);
            const auto want_pred = backward.successors(u);
            ASSERT_TRUE(std::equal(succ.begin(), succ.end(), want_succ.begin(), want_succ.end()))
                << circ.name() << " successors of node " << u;
            ASSERT_TRUE(std::equal(pred.begin(), pred.end(), want_pred.begin(), want_pred.end()))
                << circ.name() << " predecessors of node " << u;
        }

        // Node records derive from the id: start, ops in program order, end.
        EXPECT_EQ(qodg.node(qodg.start()).kind, lq::NodeKind::Start);
        EXPECT_EQ(qodg.node(qodg.end()).kind, lq::NodeKind::End);
        for (std::size_t i = 0; i < circ.size(); ++i) {
            const lq::Node node = qodg.node(qodg.node_of_gate(i));
            ASSERT_EQ(node.kind, lq::NodeKind::Op);
            ASSERT_EQ(node.gate_index, i);
            ASSERT_EQ(node.gate_kind, circ.gate(i).kind);
        }
        EXPECT_THROW((void)qodg.node(static_cast<lq::NodeId>(n_nodes)), leqa::util::InputError);
    }
}

TEST(CsrDigraph, ReversingAPredecessorCsrYieldsTheTopologicalGraph) {
    // Rows list predecessors: 1 <- 0, 2 <- {0, 1}.
    const lg::CsrDigraph preds({0, 0, 1, 3}, {0, 0, 1}, /*topological=*/false);
    const lg::CsrDigraph forward = preds.reversed();
    EXPECT_TRUE(forward.topologically_ordered());
    EXPECT_EQ(lg::validate_csr(forward), "");
    const auto succ = forward.successors(0);
    EXPECT_EQ(std::vector<lq::NodeId>(succ.begin(), succ.end()),
              (std::vector<lq::NodeId>{1, 2}));
    EXPECT_FALSE(forward.reversed().topologically_ordered());
}
