// Tests for the quantum operation dependency graph: construction (start/end
// sentinels, merged parallel edges), longest path, critical-path census,
// the lane-blocked critical path against the push-based sweep, and the
// graph synthesis streams into against the one built from its circuit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "benchgen/suite.h"
#include "iig/iig.h"
#include "lane_reference.h"
#include "qodg/qodg.h"
#include "synth/decompose.h"
#include "util/error.h"
#include "util/rng.h"

namespace lc = leqa::circuit;
namespace lq = leqa::qodg;
namespace lt = leqa::test_support;

namespace {

/// ham3-style toy circuit used across tests (paper Figure 2 flavor):
/// a Toffoli decomposition followed by a few FT gates.
lc::Circuit ham3_ft() {
    lc::Circuit circ(3, "ham3");
    leqa::synth::emit_toffoli_ft(0, 1, 2, [&](const lc::Gate& g) { circ.add_gate(g); });
    circ.cnot(1, 2).cnot(0, 1).t(0).cnot(2, 0); // 4 trailing FT ops -> 19 total
    return circ;
}

std::vector<double> unit_delays(const lq::Qodg& graph) {
    return graph.node_delays([](lc::GateKind) { return 1.0; });
}

/// `width` delay tables over the FT kinds: fixed one-qubit delays, a
/// random CNOT delay per lane (every other lane a small integer, so equal
/// path lengths and hence ties are common).
std::vector<lt::DelayTable> random_cnot_tables(std::size_t width, leqa::util::Rng& rng) {
    std::vector<lt::DelayTable> tables(width);
    for (std::size_t lane = 0; lane < width; ++lane) {
        for (std::size_t k = 0; k < lc::kGateKindCount; ++k) {
            if (lc::gate_info(static_cast<lc::GateKind>(k)).is_ft) tables[lane][k] = 1.0;
        }
        tables[lane][static_cast<std::size_t>(lc::GateKind::Cnot)] =
            lane % 2 == 0 ? static_cast<double>(rng.index(4)) : 10.0 * rng.uniform();
    }
    return tables;
}

/// `width` delay tables that draw every FT kind's delay per lane (every
/// other lane a small integer, zero included, so ties stay common): a
/// one-qubit step that read another lane's or another kind's row fails.
std::vector<lt::DelayTable> random_ft_tables(std::size_t width, leqa::util::Rng& rng) {
    std::vector<lt::DelayTable> tables(width);
    for (std::size_t lane = 0; lane < width; ++lane) {
        for (std::size_t k = 0; k < lc::kGateKindCount; ++k) {
            if (!lc::gate_info(static_cast<lc::GateKind>(k)).is_ft) continue;
            tables[lane][k] =
                lane % 2 == 0 ? static_cast<double>(rng.index(4)) : 10.0 * rng.uniform();
        }
    }
    return tables;
}

} // namespace

TEST(Qodg, EmptyCircuit) {
    const lc::Circuit circ(0);
    const lq::Qodg graph(circ);
    EXPECT_EQ(graph.num_nodes(), 2u); // start + end
    EXPECT_EQ(graph.num_ops(), 0u);
    EXPECT_EQ(graph.num_edges(), 1u); // start -> end
    const auto lp = graph.longest_path(unit_delays(graph));
    EXPECT_DOUBLE_EQ(lp.length, 0.0);
}

TEST(Qodg, UnusedQubitsDoNotDuplicateStartEndEdge) {
    lc::Circuit circ(4); // 4 idle qubits
    const lq::Qodg graph(circ);
    // All four qubit chains collapse into a single merged start->end edge.
    EXPECT_EQ(graph.num_edges(), 1u);
}

TEST(Qodg, LinearChain) {
    lc::Circuit circ(1);
    circ.h(0).t(0).h(0);
    const lq::Qodg graph(circ);
    EXPECT_EQ(graph.num_nodes(), 5u);
    EXPECT_EQ(graph.num_edges(), 4u); // start-1-2-3-end
    const auto lp = graph.longest_path(unit_delays(graph));
    EXPECT_DOUBLE_EQ(lp.length, 3.0);
    const auto path = graph.critical_path(lp);
    ASSERT_EQ(path.size(), 5u);
    EXPECT_EQ(path.front(), graph.start());
    EXPECT_EQ(path.back(), graph.end());
}

TEST(Qodg, ParallelEdgesAreMerged) {
    // Two CNOTs on the same qubit pair: the second depends on the first
    // through BOTH qubits, but only one edge must exist.
    lc::Circuit circ(2);
    circ.cnot(0, 1).cnot(0, 1);
    const lq::Qodg graph(circ);
    // Edges: start->1 (merged from two operands), 1->2 (merged), 2->end
    // (merged) = 3.
    EXPECT_EQ(graph.num_edges(), 3u);
    EXPECT_EQ(graph.successors(graph.node_of_gate(0)).size(), 1u);
}

TEST(Qodg, IndependentGatesRunInParallel) {
    lc::Circuit circ(4);
    circ.h(0).h(1).h(2).h(3);
    const lq::Qodg graph(circ);
    const auto lp = graph.longest_path(unit_delays(graph));
    EXPECT_DOUBLE_EQ(lp.length, 1.0); // all in one level
    EXPECT_EQ(graph.num_edges(), 8u); // start->each, each->end
}

TEST(Qodg, DiamondDependency) {
    // cnot(0,1); h(0) and h(1) in parallel; cnot(0,1) again.
    lc::Circuit circ(2);
    circ.cnot(0, 1).h(0).h(1).cnot(0, 1);
    const lq::Qodg graph(circ);
    const auto lp = graph.longest_path(unit_delays(graph));
    EXPECT_DOUBLE_EQ(lp.length, 3.0);

    // Weighted: making one branch heavy must route the critical path
    // through it.
    auto delays = graph.node_delays(
        [](lc::GateKind kind) { return kind == lc::GateKind::H ? 1.0 : 2.0; });
    delays[graph.node_of_gate(2)] = 50.0; // h(1) branch
    const auto weighted = graph.longest_path(delays);
    EXPECT_DOUBLE_EQ(weighted.length, 2.0 + 50.0 + 2.0);
    const auto path = graph.critical_path(weighted);
    ASSERT_EQ(path.size(), 5u); // start, cnot, h(1), cnot, end
    EXPECT_EQ(path[2], graph.node_of_gate(2));
}

TEST(Qodg, Ham3StructureMatchesFigure2) {
    const auto circ = ham3_ft();
    const lq::Qodg graph(circ);
    EXPECT_EQ(graph.num_ops(), 19u);        // 15 (Toffoli) + 4 trailing
    EXPECT_EQ(graph.num_nodes(), 21u);      // + start/end
    // Every op node lies between start and end.
    const auto lp = graph.longest_path(unit_delays(graph));
    EXPECT_GT(lp.length, 0.0);
    for (lq::NodeId id = 1; id + 1 < graph.num_nodes(); ++id) {
        EXPECT_EQ(graph.node(id).kind, lq::NodeKind::Op);
        EXPECT_FALSE(graph.successors(id).empty()) << "dangling op node " << id;
    }
}

TEST(Qodg, CensusCountsPerKind) {
    const auto circ = ham3_ft();
    const lq::Qodg graph(circ);
    const auto lp = graph.longest_path(unit_delays(graph));
    const auto path = graph.critical_path(lp);
    const auto census = graph.census(path);
    EXPECT_EQ(census.total_ops, path.size() - 2); // minus start/end
    std::size_t sum = 0;
    for (const auto n : census.by_kind) sum += n;
    EXPECT_EQ(sum, census.total_ops);
    // The toffoli-network target line is the longest chain; it is made of
    // CNOT/T/H ops only.
    EXPECT_GT(census.of(lc::GateKind::Cnot), 0u);
}

TEST(Qodg, CriticalPathDominatesEveryNodeDistance) {
    leqa::util::Rng rng(42);
    for (int trial = 0; trial < 10; ++trial) {
        const std::size_t n = 3 + rng.index(5);
        lc::Circuit circ(n);
        for (int g = 0; g < 60; ++g) {
            const auto picks = rng.sample_without_replacement(n, 2);
            if (rng.chance(0.5)) {
                circ.cnot(static_cast<lc::Qubit>(picks[0]), static_cast<lc::Qubit>(picks[1]));
            } else {
                circ.t(static_cast<lc::Qubit>(picks[0]));
            }
        }
        const lq::Qodg graph(circ);
        auto delays = graph.node_delays([&](lc::GateKind) { return 1.0; });
        // Randomize delays for a stronger property.
        for (auto& d : delays) d = 1.0 + rng.uniform() * 9.0;
        delays[graph.start()] = 0.0;
        delays[graph.end()] = 0.0;
        const auto lp = graph.longest_path(delays);
        for (lq::NodeId id = 0; id < graph.num_nodes(); ++id) {
            EXPECT_LE(lp.distance[id], lp.length + 1e-9);
        }
        // Path length equals the sum of delays along the extracted path.
        const auto path = graph.critical_path(lp);
        double sum = 0.0;
        for (const auto id : path) sum += delays[id];
        EXPECT_NEAR(sum, lp.length, 1e-9);
        // Successive path nodes are actual edges.
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            const auto& succ = graph.successors(path[i]);
            EXPECT_NE(std::find(succ.begin(), succ.end(), path[i + 1]), succ.end());
        }
    }
}

TEST(Qodg, NodeDelayVectorShape) {
    const auto circ = ham3_ft();
    const lq::Qodg graph(circ);
    const auto delays = graph.node_delays([](lc::GateKind kind) {
        return kind == lc::GateKind::Cnot ? 2.0 : 1.0;
    });
    ASSERT_EQ(delays.size(), graph.num_nodes());
    EXPECT_DOUBLE_EQ(delays[graph.start()], 0.0);
    EXPECT_DOUBLE_EQ(delays[graph.end()], 0.0);
    EXPECT_DOUBLE_EQ(delays[graph.node_of_gate(1)], 2.0); // first CNOT of the network
}

TEST(Qodg, DotExportMentionsNodes) {
    lc::Circuit circ(2);
    circ.h(0).cnot(0, 1);
    const lq::Qodg graph(circ);
    const std::string dot = graph.to_dot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("start"), std::string::npos);
    EXPECT_NE(dot.find("end"), std::string::npos);
    EXPECT_NE(dot.find("cnot"), std::string::npos);
    EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(Qodg, GateIndexMapping) {
    lc::Circuit circ(2);
    circ.h(0).cnot(0, 1).t(1);
    const lq::Qodg graph(circ);
    EXPECT_EQ(graph.node_of_gate(0), 1u);
    EXPECT_EQ(graph.node_of_gate(2), 3u);
    EXPECT_EQ(graph.node(graph.node_of_gate(1)).gate_kind, lc::GateKind::Cnot);
    EXPECT_THROW((void)graph.node_of_gate(3), leqa::util::Error);
}

// ------------------------------------------------ lane-blocked critical path

TEST(QodgLanes, MatchPushBasedSweepBitForBit) {
    leqa::util::Rng rng(2013);
    lc::Circuit idle_qubit(6); // qubit 5 is never touched
    for (lc::Qubit q = 0; q < 5; ++q) idle_qubit.h(q).cnot(q, (q + 1) % 5).t(q);
    // No CNOT, so no winner word; with equal delays qubits 0, 1 and 3 tie
    // at the end node.
    lc::Circuit cnot_free(4);
    cnot_free.h(0).t(0).t(1).h(1).x(2).h(3).s(3);
    // 320 one-qubit ops on qubit 1 between two CNOTs.
    lc::Circuit long_run(3);
    long_run.h(0).cnot(0, 1);
    for (int g = 0; g < 40; ++g) long_run.x(1).y(1).z(1).h(1).s(1).sdg(1).t(1).tdg(1);
    long_run.cnot(1, 2).t(0).cnot(2, 0);
    const lc::Circuit circuits[] = {ham3_ft(),
                                    lt::random_ft_circuit(9, 400, 11),
                                    lt::random_ft_circuit(3, 150, 12),
                                    idle_qubit,
                                    cnot_free,
                                    long_run};
    for (std::size_t c = 0; c < std::size(circuits); ++c) {
        const lq::Qodg graph(circuits[c]);
        const auto cnots = static_cast<std::size_t>(
            std::count_if(circuits[c].gates().begin(), circuits[c].gates().end(),
                          [](const lc::Gate& gate) { return gate.kind == lc::GateKind::Cnot; }));
        for (const std::size_t width : {1, 3, 8, 9, 31, 32}) {
            std::vector<lt::DelayTable> tables = random_cnot_tables(width, rng);
            EXPECT_EQ(lt::lane_mismatch(graph, tables), "")
                << "circuit " << c << " width " << width;

            // One winner word per CNOT, none per one-qubit op.
            lq::LongestPathLanes lanes;
            graph.longest_path_lanes(tables, lanes);
            EXPECT_EQ(lanes.via_second.size(), cnots * std::max<std::size_t>(1, lanes.width / 8))
                << "circuit " << c << " width " << width;

            // Every FT kind drawn per lane.
            tables = random_ft_tables(width, rng);
            EXPECT_EQ(lt::lane_mismatch(graph, tables), "")
                << "circuit " << c << " per-kind width " << width;

            // Every entry equal: paths tie everywhere, so only the tie
            // rule decides the census.
            for (lt::DelayTable& table : tables) table.fill(1.0);
            EXPECT_EQ(lt::lane_mismatch(graph, tables), "")
                << "circuit " << c << " all-equal width " << width;

            // One +inf lane among finite ones.
            tables = random_cnot_tables(width, rng);
            tables[width / 2][static_cast<std::size_t>(lc::GateKind::Cnot)] =
                std::numeric_limits<double>::infinity();
            EXPECT_EQ(lt::lane_mismatch(graph, tables), "")
                << "circuit " << c << " +inf width " << width;
        }
    }
}

TEST(QodgLanes, GateFreeAndQubitFreeCircuits) {
    leqa::util::Rng rng(5);
    for (const std::size_t qubits : {0, 3}) {
        const lq::Qodg graph{lc::Circuit(qubits)};
        const std::vector<lt::DelayTable> tables = random_cnot_tables(9, rng);
        EXPECT_EQ(lt::lane_mismatch(graph, tables), "") << qubits << " qubits";
        lq::LongestPathLanes lanes;
        graph.longest_path_lanes(tables, lanes);
        std::vector<lq::PathCensus> census(tables.size());
        graph.critical_census_lanes(lanes, census);
        for (std::size_t lane = 0; lane < tables.size(); ++lane) {
            EXPECT_EQ(lanes.length[lane], 0.0);
            EXPECT_EQ(census[lane].total_ops, 0u);
        }
    }
}

TEST(QodgLanes, RejectsBadInputs) {
    const auto circ = ham3_ft();
    const lq::Qodg graph(circ);
    leqa::util::Rng rng(3);
    lq::LongestPathLanes lanes;
    EXPECT_THROW(graph.longest_path_lanes({}, lanes), leqa::util::InputError);
    EXPECT_THROW(graph.longest_path_lanes(random_cnot_tables(33, rng), lanes),
                 leqa::util::InputError);
    for (const double bad : {std::nan(""), -1.0}) {
        std::vector<lt::DelayTable> tables = random_cnot_tables(8, rng);
        tables[5][static_cast<std::size_t>(lc::GateKind::T)] = bad;
        EXPECT_THROW(graph.longest_path_lanes(tables, lanes), leqa::util::InputError)
            << bad;
    }
    // A result of another graph with as many ops but no two-qubit op.
    lc::Circuit one_qubit_only(3);
    for (std::size_t g = 0; g < circ.size(); ++g) one_qubit_only.t(static_cast<lc::Qubit>(g % 3));
    const lq::Qodg other(one_qubit_only);
    ASSERT_EQ(other.num_ops(), graph.num_ops());
    other.longest_path_lanes(random_cnot_tables(8, rng), lanes);
    std::vector<lq::PathCensus> census(8);
    EXPECT_THROW(graph.critical_census_lanes(lanes, census), leqa::util::InputError);
    // ...and one with as many two-qubit ops whose end qubit this graph
    // does not have.
    lc::Circuit wider(5);
    for (const lc::Gate& gate : circ.gates()) {
        if (gate.kind == lc::GateKind::Cnot) wider.cnot(3, 4);
    }
    lq::Qodg(wider).longest_path_lanes(random_cnot_tables(8, rng), lanes);
    EXPECT_THROW(graph.critical_census_lanes(lanes, census), leqa::util::InputError);
    // A pre-FT graph: the Toffoli node has three operands.
    lc::Circuit toffoli(3);
    toffoli.h(0).toffoli(0, 1, 2);
    EXPECT_THROW(lq::Qodg(toffoli).longest_path_lanes(random_cnot_tables(1, rng), lanes),
                 leqa::util::InputError);
}

// ------------------------------------------- streamed from FT synthesis --

namespace {

/// A pre-FT circuit with 3-qubit (Toffoli, Fredkin) and 4-qubit (3-control
/// X, 2-control swap) gates.
lc::Circuit wide_gate_circuit() {
    lc::Circuit circ(7, "wide");
    const lc::Qubit controls[] = {0, 1, 2};
    circ.h(0).toffoli(0, 1, 2).mcx(controls, 3).cnot(3, 4).fredkin(4, 5, 6).t(5);
    circ.add_gate(lc::make_mcswap(std::span(controls, 2), 5, 6));
    circ.swap(1, 4).toffoli(6, 3, 0).x(2);
    return circ;
}

/// A random pre-FT circuit on \p num_qubits (4 to 8) qubits that mixes
/// Toffoli, k-controlled X (k = 3 to 5), Fredkin, k-controlled SWAP, SWAP
/// and FT gates: with this few qubits, the lowered Toffolis meet their
/// slots' last nodes in every order, ties included.
lc::Circuit random_pre_ft_circuit(std::size_t num_qubits, std::size_t gates,
                                  std::uint64_t seed) {
    leqa::util::Rng rng(seed);
    lc::Circuit circ(num_qubits);
    for (std::size_t g = 0; g < gates; ++g) {
        const std::vector<std::size_t> picks =
            rng.sample_without_replacement(num_qubits, num_qubits);
        std::vector<lc::Qubit> q(picks.begin(), picks.end());
        const std::span<const lc::Qubit> all(q);
        const std::size_t mcx_controls = 3 + rng.index(std::min<std::size_t>(3, num_qubits - 3));
        const std::size_t swap_controls = 2 + rng.index(std::min<std::size_t>(3, num_qubits - 3));
        switch (rng.index(9)) {
            case 0:
            case 1: circ.toffoli(q[0], q[1], q[2]); break;
            case 2: circ.mcx(all.first(mcx_controls), q[mcx_controls]); break;
            case 3: circ.fredkin(q[0], q[1], q[2]); break;
            case 4:
                circ.add_gate(lc::make_mcswap(all.first(swap_controls), q[swap_controls],
                                              q[swap_controls + 1]));
                break;
            case 5: circ.swap(q[0], q[1]); break;
            case 6: circ.cnot(q[0], q[1]); break;
            case 7: circ.t(q[0]); break;
            default: circ.h(q[0]); break;
        }
    }
    return circ;
}

/// Synthesis streamed into a Builder against Qodg(ft_synthesize(...)):
/// sizes, every adjacency row, the longest path, the DOT rendering (under
/// 200 ops), the interaction graph and, for FT output, the lanes of random
/// delay tables.
void expect_streamed_matches_circuit(const lc::Circuit& input,
                                     const leqa::synth::FtSynthOptions& options,
                                     leqa::util::Rng& rng, const std::string& what) {
    lq::Qodg::Builder tape;
    (void)leqa::synth::synthesize_into(input, options, tape);
    const lq::Qodg streamed(std::move(tape));
    const lc::Circuit ft = leqa::synth::ft_synthesize(input, options).circuit;
    const lq::Qodg built(ft);

    ASSERT_EQ(streamed.num_nodes(), built.num_nodes()) << what;
    ASSERT_EQ(streamed.num_ops(), built.num_ops()) << what;
    ASSERT_EQ(streamed.num_qubits(), built.num_qubits()) << what;
    EXPECT_EQ(streamed.gate_counts(), built.gate_counts()) << what;
    EXPECT_EQ(streamed.gate_counts(), ft.counts().by_kind) << what;
    ASSERT_EQ(streamed.num_edges(), built.num_edges()) << what;
    for (lq::NodeId u = 0; u < built.num_nodes(); ++u) {
        const auto rows_equal = [](std::span<const lq::NodeId> a, std::span<const lq::NodeId> b) {
            return std::equal(a.begin(), a.end(), b.begin(), b.end());
        };
        ASSERT_TRUE(rows_equal(streamed.predecessors(u), built.predecessors(u)))
            << what << " predecessors of " << u;
        ASSERT_TRUE(rows_equal(streamed.successors(u), built.successors(u)))
            << what << " successors of " << u;
    }

    const std::vector<lt::DelayTable> tables = random_ft_tables(5, rng);
    for (const lt::DelayTable& table : tables) {
        const lq::LongestPath a = streamed.longest_path(streamed.node_delays(table));
        const lq::LongestPath b = built.longest_path(built.node_delays(table));
        EXPECT_EQ(a.distance, b.distance) << what;
        EXPECT_EQ(a.predecessor, b.predecessor) << what;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a.length), std::bit_cast<std::uint64_t>(b.length))
            << what;
    }

    if (ft.size() < 200) {
        EXPECT_EQ(streamed.to_dot(), built.to_dot()) << what;
    }

    const leqa::iig::Iig pairs = streamed.interaction_graph();
    const leqa::iig::Iig iig(ft);
    ASSERT_EQ(pairs.num_qubits(), iig.num_qubits()) << what;
    ASSERT_EQ(pairs.num_edges(), iig.num_edges()) << what;
    for (lc::Qubit q = 0; q < iig.num_qubits(); ++q) {
        EXPECT_EQ(pairs.degree(q), iig.degree(q)) << what << " qubit " << q;
        EXPECT_EQ(pairs.adjacent_weight(q), iig.adjacent_weight(q)) << what << " qubit " << q;
    }

    if (!ft.is_ft()) return; // the lane kernel rejects wide ops
    for (const std::size_t width : {1, 7, 8, 20, 32}) {
        const std::vector<lt::DelayTable> lane_tables = random_ft_tables(width, rng);
        lq::LongestPathLanes a;
        lq::LongestPathLanes b;
        streamed.longest_path_lanes(lane_tables, a);
        built.longest_path_lanes(lane_tables, b);
        ASSERT_EQ(a.length.size(), b.length.size()) << what;
        for (std::size_t lane = 0; lane < width; ++lane) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(a.length[lane]),
                      std::bit_cast<std::uint64_t>(b.length[lane]))
                << what << " width " << width << " lane " << lane;
        }
        EXPECT_EQ(a.via_second, b.via_second) << what << " width " << width;
        std::vector<lq::PathCensus> census_a(width);
        std::vector<lq::PathCensus> census_b(width);
        streamed.critical_census_lanes(a, census_a);
        built.critical_census_lanes(b, census_b);
        for (std::size_t lane = 0; lane < width; ++lane) {
            EXPECT_EQ(census_a[lane].by_kind, census_b[lane].by_kind)
                << what << " width " << width << " lane " << lane;
        }
    }
}

} // namespace

TEST(QodgBuilder, SynthesisStreamMatchesSynthesizedCircuit) {
    leqa::util::Rng rng(18);
    leqa::synth::FtSynthOptions toffoli;
    toffoli.keep_toffoli = true;
    leqa::synth::FtSynthOptions shared;
    shared.share_ancillas = true;
    expect_streamed_matches_circuit(leqa::benchgen::ham3(), {}, rng, "ham3");
    expect_streamed_matches_circuit(leqa::benchgen::ham3(), toffoli, rng, "ham3 keep_toffoli");
    expect_streamed_matches_circuit(ham3_ft(), {}, rng, "ham3 FT");
    for (const std::uint64_t seed : {21, 22, 23}) {
        expect_streamed_matches_circuit(lt::random_ft_circuit(3 + seed % 7, 300, seed), {}, rng,
                                        "random FT " + std::to_string(seed));
    }
    expect_streamed_matches_circuit(wide_gate_circuit(), {}, rng, "wide");
    expect_streamed_matches_circuit(wide_gate_circuit(), shared, rng, "wide share_ancillas");
    expect_streamed_matches_circuit(wide_gate_circuit(), toffoli, rng, "wide keep_toffoli");
    expect_streamed_matches_circuit(lc::Circuit(0), {}, rng, "no qubits");
    // The suite circuits of up to about 70k FT ops, nearly all of them in
    // lowered-Toffoli blocks.
    for (const char* name :
         {"8bitadder", "ham15", "hwb50ps", "mod1048576adder", "gf2^64mult", "hwb100ps"}) {
        expect_streamed_matches_circuit(leqa::benchgen::make_benchmark(name), {}, rng, name);
    }
    for (std::uint64_t seed = 40; seed < 60; ++seed) {
        const lc::Circuit input = random_pre_ft_circuit(4 + seed % 5, 40, seed);
        const std::string what = "random pre-FT " + std::to_string(seed);
        expect_streamed_matches_circuit(input, {}, rng, what);
        expect_streamed_matches_circuit(input, shared, rng, what + " share_ancillas");
    }
}

TEST(QodgBuilder, WideOpsInteractLikeTheIig) {
    // Fed the pre-FT circuit itself, the builder keeps its 3- and 4-qubit
    // ops whole in the side table (graph_test checks their rows), and
    // every operand pair of one interacts, as in the IIG.
    const lc::Circuit circ = wide_gate_circuit();
    const lq::Qodg graph(circ);
    const leqa::iig::Iig iig(circ);
    const leqa::iig::Iig pairs = graph.interaction_graph();
    ASSERT_EQ(pairs.num_edges(), iig.num_edges());
    for (lc::Qubit q = 0; q < circ.num_qubits(); ++q) {
        EXPECT_EQ(pairs.degree(q), iig.degree(q)) << "qubit " << q;
        EXPECT_EQ(pairs.adjacent_weight(q), iig.adjacent_weight(q)) << "qubit " << q;
    }
}

namespace {

/// what() of the InputError \p body throws, or "" if it throws none.
template <class Body>
std::string message_of(Body&& body) {
    try {
        body();
    } catch (const leqa::util::InputError& e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(QodgBuilder, ValidatesGatesLikeCircuit) {
    lq::Qodg::Builder builder;
    EXPECT_EQ(builder.add_qubit("a"), 0u);
    EXPECT_EQ(builder.add_qubit(), 1u);
    builder.add_gate(lc::make_cnot(0, 1));
    EXPECT_THROW(builder.add_gate(lc::make_cnot(0, 2)), leqa::util::InputError);
    EXPECT_THROW(builder.add_gate(lc::make_cnot(1, 1)), leqa::util::InputError);
    EXPECT_TRUE(builder.is_ft());
    builder.add_qubit();
    builder.add_gate(lc::make_toffoli(0, 1, 2));
    EXPECT_FALSE(builder.is_ft());
    EXPECT_EQ(builder.size(), 2u);
    const lq::Qodg graph(std::move(builder));
    EXPECT_EQ(graph.num_ops(), 2u);
    EXPECT_EQ(graph.num_qubits(), 3u);
    EXPECT_EQ(graph.gate_counts()[static_cast<std::size_t>(lc::GateKind::Toffoli)], 1u);

    // A lowered Toffoli's block on slots out of range or repeated takes
    // add_gate step by step: the first bad step throws add_gate's message
    // and leaves add_gate's partial tape.
    const std::string out_of_range =
        "requirement failed: qubit index 3 out of range (circuit has 3 qubits)";
    const std::string repeated = "requirement failed: cnot: duplicate qubit operand";
    const std::vector<std::pair<std::array<lc::Qubit, 3>, std::string>> cases = {
        {{0, 1, 3}, out_of_range}, {{3, 1, 2}, out_of_range}, {{0, 3, 2}, out_of_range},
        {{0, 0, 2}, repeated},     {{0, 1, 1}, repeated},     {{2, 1, 2}, repeated},
        {{1, 1, 1}, repeated},     {{0, 1, 2}, ""},
    };
    for (const auto& [slots, expected] : cases) {
        const std::string what = std::to_string(slots[0]) + "," + std::to_string(slots[1]) +
                                 "," + std::to_string(slots[2]);
        lq::Qodg::Builder block;
        lq::Qodg::Builder per_gate;
        for (lq::Qodg::Builder* tape : {&block, &per_gate}) {
            for (int q = 0; q < 3; ++q) tape->add_qubit();
            tape->add_gate(lc::make_cnot(2, 0));
        }
        EXPECT_EQ(message_of([&] {
                      block.add_network<leqa::synth::kToffoliFtNetwork>(slots);
                  }),
                  expected)
            << what;
        EXPECT_EQ(message_of([&] {
                      leqa::synth::emit_toffoli_ft(slots[0], slots[1], slots[2],
                                                   [&](const lc::Gate& g) { per_gate.add_gate(g); });
                  }),
                  expected)
            << what;
        ASSERT_EQ(block.size(), per_gate.size()) << what;
        EXPECT_EQ(block.is_ft(), per_gate.is_ft()) << what;
        const lq::Qodg a(std::move(block));
        const lq::Qodg b(std::move(per_gate));
        EXPECT_EQ(a.gate_counts(), b.gate_counts()) << what;
        EXPECT_EQ(a.to_dot(), b.to_dot()) << what;
    }
}
