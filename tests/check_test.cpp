// The contract layer (util/check.h) and the structural validators it
// consumes.  Three concerns:
//
//   1. macro semantics — LEQA_CHECK always throws InternalError through the
//      default handler, the handler is swappable (death-test / fuzzer
//      hook), and LEQA_DCHECK evaluates its condition exactly
//      LEQA_DCHECK_ENABLED times (i.e. *never* in Release: the side-effect
//      probe compiles in both configurations and asserts the count);
//   2. validators catch deliberately corrupted structures — a CSR with an
//      out-of-bounds edge, a cyclic digraph, a coverage histogram losing
//      probability mass, an incremental timer with a poisoned arrival;
//   3. validators are clean on everything the real constructors build.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "benchgen/suite.h"
#include "core/placed.h"
#include "fabric/geometry.h"
#include "fabric/topology.h"
#include "graph/csr.h"
#include "graph/csr_builder.h"
#include "pipeline/pipeline.h"
#include "qodg/qodg.h"
#include "qspr/placement.h"
#include "synth/ft_synth.h"
#include "util/check.h"
#include "util/error.h"

namespace lu = leqa::util;
namespace lg = leqa::graph;
namespace lf = leqa::fabric;

namespace {

// --- macro semantics --------------------------------------------------------

TEST(Check, PassingCheckIsSilent) {
    EXPECT_NO_THROW(LEQA_CHECK(1 + 1 == 2, "arithmetic"));
}

TEST(Check, FailingCheckThrowsInternalError) {
    try {
        LEQA_CHECK(false, "deliberate failure");
        FAIL() << "LEQA_CHECK(false) did not throw";
    } catch (const lu::InternalError& e) {
        EXPECT_NE(std::string(e.what()).find("internal check failed"),
                  std::string::npos)
            << e.what();
        EXPECT_NE(std::string(e.what()).find("deliberate failure"),
                  std::string::npos)
            << e.what();
    }
}

int g_handler_hits = 0;

[[noreturn]] void counting_handler(const char* expression, const char* file,
                                   int line, const std::string& message) {
    ++g_handler_hits;
    throw lu::InternalError(std::string("custom: ") + expression + " @ " + file +
                            ":" + std::to_string(line) + ": " + message);
}

TEST(Check, FailHandlerIsSwappable) {
    g_handler_hits = 0;
    lu::CheckFailHandler previous = lu::set_check_fail_handler(&counting_handler);
    try {
        EXPECT_THROW(LEQA_CHECK(false, "routed"), lu::InternalError);
        EXPECT_EQ(g_handler_hits, 1);
    } catch (...) {
        (void)lu::set_check_fail_handler(previous);
        throw;
    }
    (void)lu::set_check_fail_handler(previous);

    // nullptr restores the default (throwing) handler.
    (void)lu::set_check_fail_handler(nullptr);
    EXPECT_THROW(LEQA_CHECK(false, "default again"), lu::InternalError);
    EXPECT_EQ(g_handler_hits, 1);
}

TEST(Check, DcheckEvaluatesConditionOnlyWhenEnabled) {
    // The probe compiles identically in Debug and Release; the counter
    // records whether the condition ever ran.  In Release (NDEBUG, no
    // LEQA_FORCE_DCHECK) the macro must expand to zero evaluations.
    int evaluations = 0;
    const auto probe = [&evaluations] {
        ++evaluations;
        return true;
    };
    LEQA_DCHECK(probe(), "side-effect probe");
    EXPECT_EQ(evaluations, LEQA_DCHECK_ENABLED);

    std::string validator_calls;
    const auto validator = [&validator_calls] {
        validator_calls += "x";
        return std::string();
    };
    LEQA_DCHECK_OK(validator());
    EXPECT_EQ(validator_calls.size(), static_cast<std::size_t>(LEQA_DCHECK_ENABLED));
}

#if LEQA_DCHECK_ENABLED
TEST(Check, FailingDcheckThrowsInDebug) {
    EXPECT_THROW(LEQA_DCHECK(false, "debug failure"), lu::InternalError);
    EXPECT_THROW(LEQA_DCHECK_OK(std::string("validator found rot")),
                 lu::InternalError);
}
#endif

// --- graph::validate_csr ----------------------------------------------------

TEST(ValidateCsr, CleanGraphPasses) {
    lg::CsrBuilder builder(4);
    builder.add_edge(0, 1);
    builder.add_edge(0, 2);
    builder.add_edge(1, 3);
    builder.add_edge(2, 3);
    const lg::CsrDigraph g = builder.build();
    EXPECT_TRUE(g.topologically_ordered());
    EXPECT_EQ(lg::validate_csr(g), "");
}

TEST(ValidateCsr, CatchesOutOfBoundsEdge) {
    // Hand-built arrays: node 0 -> node 7 in a 2-node graph.
    const std::vector<std::uint32_t> offsets = {0, 1, 1};
    const std::vector<lg::NodeId> targets = {7};
    const std::string err = lg::validate_csr(offsets, targets, false);
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

TEST(ValidateCsr, CatchesBadOffsets) {
    EXPECT_NE(lg::validate_csr(std::vector<std::uint32_t>{1, 1},
                               std::vector<lg::NodeId>{}, false)
                  .find("offsets[0]"),
              std::string::npos);
    EXPECT_NE(lg::validate_csr(std::vector<std::uint32_t>{0, 2, 1},
                               std::vector<lg::NodeId>{1, 0, 1}, false)
                  .find("not monotone"),
              std::string::npos);
    EXPECT_NE(lg::validate_csr(std::vector<std::uint32_t>{0, 1},
                               std::vector<lg::NodeId>{1, 0}, false)
                  .find("targets are stored"),
              std::string::npos);
}

TEST(ValidateCsr, CatchesSelfLoopAndUnsortedRow) {
    EXPECT_NE(lg::validate_csr(std::vector<std::uint32_t>{0, 1},
                               std::vector<lg::NodeId>{0}, false)
                  .find("self loop"),
              std::string::npos);
    EXPECT_NE(lg::validate_csr(std::vector<std::uint32_t>{0, 2, 2, 2},
                               std::vector<lg::NodeId>{2, 1}, false)
                  .find("sorted"),
              std::string::npos);
}

TEST(ValidateCsr, CatchesCycleViaKahn) {
    // 1 -> 2 -> 1: representable only as a non-topological graph.
    lg::CsrBuilder builder(3);
    builder.add_edge(1, 2);
    builder.add_edge(2, 1);
    const lg::CsrDigraph g = builder.build();
    EXPECT_FALSE(g.topologically_ordered());
    const std::string err = lg::validate_csr(g);
    EXPECT_NE(err.find("cycle"), std::string::npos) << err;
}

TEST(ValidateCsr, CatchesClaimedTopologicalOrderViolation) {
    // The edge 1 -> 0 is a fine DAG but violates the low->high claim.
    const std::vector<std::uint32_t> offsets = {0, 0, 1};
    const std::vector<lg::NodeId> targets = {0};
    EXPECT_EQ(lg::validate_csr(offsets, targets, false), "");
    EXPECT_NE(lg::validate_csr(offsets, targets, true).find("topological"),
              std::string::npos);
}

TEST(ValidateCsr, QodgIsClean) {
    const leqa::circuit::Circuit ft =
        leqa::synth::ft_synthesize(leqa::pipeline::parse_source("bench:ham3").load())
            .circuit;
    const leqa::qodg::Qodg graph(ft);
    EXPECT_EQ(lg::validate_csr(graph.csr()), "");
}

// --- fabric::validate_coverage / validate_topology --------------------------

TEST(ValidateCoverage, CleanHistogramsPass) {
    // Grid Eq. 5 table: expected mass is the zone area s^2.
    EXPECT_EQ(lf::validate_coverage(lf::CoverageHistogram::build(8, 8, 3), 9.0), "");
    EXPECT_EQ(lf::validate_coverage(lf::CoverageHistogram::build(12, 7, 4), 16.0), "");
}

TEST(ValidateCoverage, CatchesLostMass) {
    // A single bin covering every cell with probability 1/2 carries mass
    // cells/2; claiming zone area `cells` loses half the mass.
    const lf::CoverageHistogram histogram = lf::CoverageHistogram::from_bins(
        {lf::CoverageHistogram::Bin{0.5, 16.0}}, 16.0);
    EXPECT_EQ(lf::validate_coverage(histogram, 8.0), "");
    const std::string err = lf::validate_coverage(histogram, 16.0);
    EXPECT_NE(err.find("mass"), std::string::npos) << err;
}

TEST(ValidateCoverage, CatchesBadBins) {
    const std::string bad_p = lf::validate_coverage(
        lf::CoverageHistogram::from_bins({lf::CoverageHistogram::Bin{1.5, 4.0}}, 4.0),
        6.0);
    EXPECT_NE(bad_p.find("probability"), std::string::npos) << bad_p;

    const std::string bad_count = lf::validate_coverage(
        lf::CoverageHistogram::from_bins({lf::CoverageHistogram::Bin{0.5, 4.0}}, 9.0),
        2.0);
    EXPECT_NE(bad_count.find("cells"), std::string::npos) << bad_count;
}

TEST(ValidateTopology, AllKindsAreClean) {
    for (const lf::TopologyKind kind :
         {lf::TopologyKind::Grid, lf::TopologyKind::Torus}) {
        const auto topology = lf::make_topology(kind, 6, 5);
        EXPECT_EQ(lf::validate_topology(*topology), "") << topology->name();
    }
    const auto line = lf::make_topology(lf::TopologyKind::Line, 9, 1);
    EXPECT_EQ(lf::validate_topology(*line), "");
}

// Grids with one planted fault each, so every failure path of the audit
// runs on a topology that is otherwise clean.
namespace {

/// ULB (0, 0) forgets its link to the right: (1, 0) still links back.
class OneWayGrid : public lf::GridTopology {
public:
    using GridTopology::GridTopology;
    [[nodiscard]] lf::Links links(lf::UlbId u) const override {
        lf::Links out = GridTopology::links(u);
        if (u == 0) {
            out.link[0] = out.link[1]; // keep only the link down
            out.count = 1;
        }
        return out;
    }
};

/// The last segment's two links carry segment 0's id instead.
class SharedSegmentGrid : public lf::GridTopology {
public:
    using GridTopology::GridTopology;
    [[nodiscard]] lf::Links links(lf::UlbId u) const override {
        lf::Links out = GridTopology::links(u);
        const auto last = static_cast<lf::SegmentId>(num_segments() - 1);
        for (int i = 0; i < out.count; ++i) {
            if (out.link[static_cast<std::size_t>(i)].segment == last) {
                out.link[static_cast<std::size_t>(i)].segment = 0;
            }
        }
        return out;
    }
};

/// Counts one segment more than its links use.
class UnusedSegmentGrid : public lf::GridTopology {
public:
    using GridTopology::GridTopology;
    [[nodiscard]] std::size_t num_segments() const override {
        return GridTopology::num_segments() + 1;
    }
};

/// Routes list the right segments in reverse order.
class ReversedRouteGrid : public lf::GridTopology {
public:
    using GridTopology::GridTopology;
    void route(lf::UlbCoord a, lf::UlbCoord b,
               std::vector<lf::SegmentId>& out) const override {
        GridTopology::route(a, b, out);
        std::reverse(out.begin(), out.end());
    }
};

} // namespace

TEST(ValidateTopology, CatchesAnAsymmetricLink) {
    const std::string err = lf::validate_topology(OneWayGrid(6, 5));
    EXPECT_NE(err.find("asymmetric"), std::string::npos) << err;
}

TEST(ValidateTopology, CatchesOneSegmentOnTwoPairs) {
    const std::string err = lf::validate_topology(SharedSegmentGrid(6, 5));
    EXPECT_NE(err.find("segment 0 sits in 4 links"), std::string::npos) << err;
}

TEST(ValidateTopology, CatchesASegmentNoLinkUses) {
    const std::string err = lf::validate_topology(UnusedSegmentGrid(6, 5));
    EXPECT_NE(err.find("no link uses segment 49"), std::string::npos) << err;
}

TEST(ValidateTopology, CatchesARouteThatIsNotAWalk) {
    const std::string err = lf::validate_topology(ReversedRouteGrid(6, 5));
    EXPECT_NE(err.find("is not a connected walk"), std::string::npos) << err;
}

// --- core::PlacedTimer::audit ----------------------------------------------

leqa::core::PlacedTimer small_timer() {
    const leqa::circuit::Circuit ft =
        leqa::synth::ft_synthesize(leqa::pipeline::parse_source("bench:ham3").load())
            .circuit;
    static const leqa::qodg::Qodg graph(ft);
    lf::PhysicalParams params;
    params.width = 6;
    params.height = 6;
    std::vector<lf::UlbId> homes = leqa::qspr::initial_placement(
        lf::FabricGeometry(lf::make_topology(params)), ft.num_qubits(),
        leqa::qspr::PlacementStrategy::Random, /*seed=*/11);
    return {graph, ft, params, std::move(homes)};
}

TEST(PlacedAudit, CleanAfterMoves) {
    leqa::core::PlacedTimer timer = small_timer();
    EXPECT_EQ(timer.audit(), "");
    if (timer.num_qubits() >= 2) {
        (void)timer.apply_swap(0, 1);
        EXPECT_EQ(timer.audit(), "");
        (void)timer.apply_swap(0, 1); // revert path (undo-log replay)
        EXPECT_EQ(timer.audit(), "");
    }
}

TEST(PlacedAudit, CatchesPoisonedArrival) {
    leqa::core::PlacedTimer timer = small_timer();
    // A timer whose delay vector is silently edited behind its back models
    // incremental-state rot: the audit recomputes from scratch and reports
    // the first diverging node.
    const_cast<std::vector<double>&>(timer.delays())[timer.delays().size() / 2] +=
        1000.0;
    const std::string err = timer.audit();
    EXPECT_NE(err.find("placed:"), std::string::npos) << err;
}

} // namespace
