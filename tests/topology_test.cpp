// Tests for the pluggable fabric topologies: the counting-sort adjacency
// against a brute-force segment scan, grid bit-compatibility with the
// pre-topology geometry, torus/line adjacency and metric invariants,
// coverage histograms, routing invariants (every route is a chain of
// topology-adjacent hops; torus routes never beat their own metric or lose
// to grid routes), and the topology-aware estimation engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "benchgen/suite.h"
#include "core/engine.h"
#include "core/leqa.h"
#include "core/explore.h"
#include "fabric/topology.h"
#include "iig/iig.h"
#include "qodg/qodg.h"
#include "qspr/channels.h"
#include "qspr/qspr.h"
#include "qspr/router.h"
#include "util/error.h"
#include "util/rng.h"

namespace lb = leqa::benchgen;
namespace lcore = leqa::core;
namespace lf = leqa::fabric;
namespace lq = leqa::qspr;
using leqa::util::InputError;

namespace {

/// Walk a segment route from `from`, requiring every hop to be a
/// topology-adjacent move; returns the final ULB.
lf::UlbId follow_route(const lf::Topology& topo, lf::UlbId from,
                       const std::vector<lf::SegmentId>& route) {
    lf::UlbId cursor = from;
    for (const lf::SegmentId segment : route) {
        const auto [u, v] = topo.segment_endpoints(segment);
        EXPECT_TRUE(cursor == u || cursor == v)
            << "segment " << segment << " does not touch ULB " << cursor;
        const lf::UlbId next = cursor == u ? v : u;
        EXPECT_TRUE(topo.adjacent(cursor, next));
        cursor = next;
    }
    return cursor;
}

lf::UlbCoord random_coord(leqa::util::Rng& rng, const lf::Topology& topo) {
    return {static_cast<int>(rng.index(static_cast<std::size_t>(topo.width()))),
            static_cast<int>(rng.index(static_cast<std::size_t>(topo.height())))};
}

} // namespace

// ------------------------------------------------------------ kinds -------

TEST(TopologyKind, ParseNameRoundTrip) {
    for (const auto kind : {lf::TopologyKind::Grid, lf::TopologyKind::Torus,
                            lf::TopologyKind::Line}) {
        EXPECT_EQ(lf::parse_topology_kind(lf::topology_kind_name(kind)), kind);
    }
    EXPECT_EQ(lf::parse_topology_kind("TORUS"), lf::TopologyKind::Torus);
    EXPECT_THROW((void)lf::parse_topology_kind("moebius"), InputError);
}

TEST(TopologyFactory, BuildsEveryKind) {
    EXPECT_EQ(lf::make_topology(lf::TopologyKind::Grid, 5, 4)->kind(),
              lf::TopologyKind::Grid);
    EXPECT_EQ(lf::make_topology(lf::TopologyKind::Torus, 5, 4)->kind(),
              lf::TopologyKind::Torus);
    EXPECT_EQ(lf::make_topology(lf::TopologyKind::Line, 20, 1)->kind(),
              lf::TopologyKind::Line);
}

TEST(TopologyFactory, LineRejectsTallFabrics) {
    EXPECT_THROW((void)lf::make_topology(lf::TopologyKind::Line, 5, 2), InputError);
    lf::PhysicalParams params;
    params.topology = lf::TopologyKind::Line;
    params.width = 60;
    params.height = 60;
    EXPECT_THROW(params.validate(), InputError);
    params.width = 3600;
    params.height = 1;
    EXPECT_NO_THROW(params.validate());
}

// ---------------------------------------------- adjacency vs brute force --

TEST(TopologyAdjacency, RowsMatchBruteForceSegmentScan) {
    // The CSR adjacency is one counting sort over the segment list.  Rebuild
    // every row by brute force -- each segment touching u, as (other end,
    // segment id), sorted by the other end -- and compare arc for arc.
    std::vector<std::shared_ptr<const lf::Topology>> topologies;
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {1, 1}, {2, 2}, {2, 5}, {3, 3}, {7, 4}, {11, 9}}) {
        topologies.push_back(lf::make_topology(lf::TopologyKind::Grid, w, h));
        topologies.push_back(lf::make_topology(lf::TopologyKind::Torus, w, h));
        topologies.push_back(lf::make_topology(lf::TopologyKind::Line, w * h, 1));
    }
    for (const int w : {1, 2, 3, 40}) {
        topologies.push_back(lf::make_topology(lf::TopologyKind::Line, w, 1));
    }
    for (const auto& topology : topologies) {
        const lf::Topology& topo = *topology;
        const std::string label = topo.name() + " " + std::to_string(topo.width()) +
                                  "x" + std::to_string(topo.height());
        const std::size_t n = topo.num_ulbs();
        std::vector<std::vector<std::pair<lf::UlbId, lf::SegmentId>>> rows(n);
        for (lf::SegmentId s = 0; static_cast<std::size_t>(s) < topo.num_segments(); ++s) {
            const auto [u, v] = topo.segment_endpoints(s);
            rows[static_cast<std::size_t>(u)].emplace_back(v, s);
            rows[static_cast<std::size_t>(v)].emplace_back(u, s);
        }
        for (lf::UlbId u = 0; static_cast<std::size_t>(u) < n; ++u) {
            auto& want = rows[static_cast<std::size_t>(u)];
            std::sort(want.begin(), want.end());
            const auto nodes = topo.neighbors(u);
            const auto segments = topo.neighbor_segments(u);
            ASSERT_EQ(nodes.size(), want.size()) << label << " ULB " << u;
            ASSERT_EQ(segments.size(), want.size()) << label << " ULB " << u;
            for (std::size_t i = 0; i < want.size(); ++i) {
                EXPECT_EQ(static_cast<lf::UlbId>(nodes[i]), want[i].first)
                    << label << " ULB " << u << " arc " << i;
                EXPECT_EQ(segments[i], want[i].second)
                    << label << " ULB " << u << " arc " << i;
            }
        }
        EXPECT_EQ(lf::validate_topology(topo, n * n), "") << label;
    }
}

// ----------------------------------------------- grid bit-compatibility ----

TEST(GridTopology, SegmentNumberingMatchesLegacyFormulas) {
    const lf::GridTopology topo(7, 5);
    // Horizontal (x, y)-(x+1, y): id y*(w-1) + x; vertical after all
    // horizontal: H + y*w + x — the exact pre-topology numbering.
    const int h_count = (7 - 1) * 5;
    for (int y = 0; y < 5; ++y) {
        for (int x = 0; x + 1 < 7; ++x) {
            EXPECT_EQ(topo.segment_between(topo.ulb_id({x, y}), topo.ulb_id({x + 1, y})),
                      y * 6 + x);
        }
    }
    for (int y = 0; y + 1 < 5; ++y) {
        for (int x = 0; x < 7; ++x) {
            EXPECT_EQ(topo.segment_between(topo.ulb_id({x, y}), topo.ulb_id({x, y + 1})),
                      h_count + y * 7 + x);
        }
    }
    EXPECT_EQ(topo.num_segments(), static_cast<std::size_t>(h_count + 7 * 4));
    EXPECT_EQ(topo.adjacency().num_edges(), 2 * topo.num_segments());
}

TEST(GridTopology, RouteIsDimensionOrderedXy) {
    const lf::GridTopology topo(10, 8);
    const auto factory = lf::make_topology(lf::TopologyKind::Grid, 10, 8);
    leqa::util::Rng rng(11);
    for (int trial = 0; trial < 50; ++trial) {
        const auto a = random_coord(rng, topo);
        const auto b = random_coord(rng, topo);
        const auto route = topo.route(a, b);
        EXPECT_EQ(route, factory->route(a, b));
        EXPECT_EQ(route.size(), static_cast<std::size_t>(topo.distance(a, b)));
        EXPECT_EQ(follow_route(topo, topo.ulb_id(a), route), topo.ulb_id(b));
    }
}

TEST(GridTopology, CoverageMatchesHistogramBuilder) {
    const lf::GridTopology topo(60, 60);
    const auto from_topo = topo.coverage_histogram(6);
    const auto reference = lf::CoverageHistogram::build(60, 60, 6);
    ASSERT_EQ(from_topo.bins().size(), reference.bins().size());
    for (std::size_t i = 0; i < reference.bins().size(); ++i) {
        EXPECT_DOUBLE_EQ(from_topo.bins()[i].probability,
                         reference.bins()[i].probability);
        EXPECT_DOUBLE_EQ(from_topo.bins()[i].multiplicity,
                         reference.bins()[i].multiplicity);
    }
    // Zone extent matches the estimator's legacy zone_side rule.
    for (const double area : {0.0, 1.0, 2.0, 17.3, 36.0, 10000.0}) {
        EXPECT_EQ(topo.zone_extent(area),
                  lcore::LeqaEstimator::zone_side(area, 60, 60));
    }
}

// ----------------------------------------------------------- torus ---------

TEST(TorusTopology, WrapSegmentsAndDistance) {
    const lf::TorusTopology topo(6, 4);
    // Grid segments + one wrap per row and per column.
    EXPECT_EQ(topo.num_segments(), static_cast<std::size_t>(5 * 4 + 6 * 3 + 4 + 6));
    // Wrap neighbors exist.
    EXPECT_TRUE(topo.adjacent(topo.ulb_id({0, 0}), topo.ulb_id({5, 0})));
    EXPECT_TRUE(topo.adjacent(topo.ulb_id({2, 0}), topo.ulb_id({2, 3})));
    // Every ULB has degree 4 on a torus with both dims >= 3.
    for (lf::UlbId id = 0; static_cast<std::size_t>(id) < topo.num_ulbs(); ++id) {
        EXPECT_EQ(topo.neighbors(id).size(), 4u);
    }
    EXPECT_EQ(topo.distance({0, 0}, {5, 0}), 1);
    EXPECT_EQ(topo.distance({0, 0}, {3, 2}), 3 + 2);
    EXPECT_EQ(topo.distance({1, 1}, {5, 3}), 2 + 2);
}

TEST(TorusTopology, SmallDimensionsHaveNoParallelChannels) {
    // Wrap channels only along dimensions >= 3: no ULB pair may be
    // connected twice, and degree counts stay consistent.
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {2, 2}, {1, 5}, {2, 7}, {3, 2}, {1, 1}}) {
        const lf::TorusTopology topo(w, h);
        std::set<std::pair<lf::UlbId, lf::UlbId>> seen;
        for (std::size_t s = 0; s < topo.num_segments(); ++s) {
            const auto ends = topo.segment_endpoints(static_cast<lf::SegmentId>(s));
            EXPECT_TRUE(seen.insert(ends).second)
                << w << "x" << h << " duplicate segment " << s;
        }
        EXPECT_EQ(topo.adjacency().num_edges(), 2 * topo.num_segments());
    }
}

TEST(TorusTopology, RoutesAreShortestAndAdjacent) {
    const lf::TorusTopology topo(9, 7);
    leqa::util::Rng rng(23);
    for (int trial = 0; trial < 60; ++trial) {
        const auto a = random_coord(rng, topo);
        const auto b = random_coord(rng, topo);
        const auto route = topo.route(a, b);
        EXPECT_EQ(route.size(), static_cast<std::size_t>(topo.distance(a, b)));
        EXPECT_EQ(follow_route(topo, topo.ulb_id(a), route), topo.ulb_id(b));
    }
}

TEST(TorusTopology, RoutesNeverLongerThanGrid) {
    // On the same geometry the wraparound can only help: for every pair,
    // |torus route| <= |grid route|, with a strict win across the corners.
    const lf::GridTopology grid(12, 12);
    const lf::TorusTopology torus(12, 12);
    std::size_t strict_wins = 0;
    for (int x0 = 0; x0 < 12; x0 += 3) {
        for (int y0 = 0; y0 < 12; y0 += 3) {
            for (int x1 = 0; x1 < 12; x1 += 3) {
                for (int y1 = 0; y1 < 12; y1 += 3) {
                    const lf::UlbCoord a{x0, y0};
                    const lf::UlbCoord b{x1, y1};
                    const auto grid_route = grid.route(a, b);
                    const auto torus_route = torus.route(a, b);
                    EXPECT_LE(torus_route.size(), grid_route.size());
                    if (torus_route.size() < grid_route.size()) ++strict_wins;
                }
            }
        }
    }
    EXPECT_GT(strict_wins, 0u);
    EXPECT_LT(torus.route({0, 0}, {11, 11}).size(),
              grid.route({0, 0}, {11, 11}).size());
}

TEST(TorusTopology, RingsCoverFabricExactlyOnce) {
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {5, 4}, {6, 6}, {3, 9}, {1, 7}, {2, 2}}) {
        const lf::TorusTopology topo(w, h);
        const lf::UlbCoord center{w / 2, h / 3};
        std::set<std::pair<int, int>> seen;
        for (int r = 0; r <= std::max(w, h); ++r) {
            for (const auto c : topo.ring(center, r)) {
                EXPECT_TRUE(topo.in_bounds(c));
                EXPECT_TRUE(seen.insert({c.x, c.y}).second)
                    << w << "x" << h << " duplicate " << c.to_string() << " r=" << r;
            }
        }
        EXPECT_EQ(seen.size(), topo.num_ulbs()) << w << "x" << h;
    }
}

TEST(TorusTopology, MidpointSitsBetween) {
    const lf::TorusTopology topo(10, 10);
    // Wrap-aware: the midpoint of (0,0) and (9,9) is across the seam.
    const auto mid = topo.midpoint({0, 0}, {9, 9});
    EXPECT_LE(topo.distance({0, 0}, mid), 2);
    EXPECT_LE(topo.distance(mid, {9, 9}), 2);
    EXPECT_EQ(topo.midpoint({2, 2}, {6, 2}), (lf::UlbCoord{4, 2}));
}

TEST(TorusTopology, CoverageIsOneTranslationInvariantBin) {
    const lf::TorusTopology topo(60, 60);
    const auto histogram = topo.coverage_histogram(6);
    ASSERT_EQ(histogram.bins().size(), 1u);
    EXPECT_DOUBLE_EQ(histogram.bins()[0].probability, 36.0 / 3600.0);
    EXPECT_DOUBLE_EQ(histogram.bins()[0].multiplicity, 3600.0);
    EXPECT_DOUBLE_EQ(histogram.cells(), 3600.0);
    EXPECT_THROW((void)topo.coverage_histogram(61), InputError);
}

// ------------------------------------------------------------ line ---------

TEST(LineTopology, GeometryAndMetric) {
    const lf::LineTopology topo(8);
    EXPECT_EQ(topo.num_segments(), 7u);
    EXPECT_EQ(topo.distance({0, 0}, {7, 0}), 7);
    EXPECT_EQ(topo.route({0, 0}, {7, 0}).size(), 7u);
    EXPECT_EQ(follow_route(topo, topo.ulb_id({0, 0}), topo.route({0, 0}, {7, 0})),
              topo.ulb_id({7, 0}));
    EXPECT_THROW(lf::LineTopology(5, 3), InputError);
}

TEST(LineTopology, ZoneExtentIsIntervalLength) {
    const lf::LineTopology topo(100);
    EXPECT_EQ(topo.zone_extent(0.0), 1);
    EXPECT_EQ(topo.zone_extent(4.0), 4);   // a 1x4 interval, not a 2x2 square
    EXPECT_EQ(topo.zone_extent(4.2), 5);
    EXPECT_EQ(topo.zone_extent(1e9), 100); // clamped to the row
}

TEST(LineTopology, CoverageMatchesPerCell1dTable) {
    const int a = 40;
    const int s = 6;
    const lf::LineTopology topo(a);
    const auto histogram = topo.coverage_histogram(s);
    EXPECT_LE(histogram.bins().size(), static_cast<std::size_t>(s));

    // Per-cell 1D reference: nx = min{x, a-x+1, s, a-s+1} over denom.
    double total_cells = 0.0;
    double weighted = 0.0;
    for (const auto& bin : histogram.bins()) {
        total_cells += bin.multiplicity;
        weighted += bin.probability * bin.multiplicity;
    }
    EXPECT_DOUBLE_EQ(total_cells, static_cast<double>(a));
    double reference = 0.0;
    for (int x = 1; x <= a; ++x) {
        reference += std::min({x, a - x + 1, s, a - s + 1}) /
                     static_cast<double>(a - s + 1);
    }
    EXPECT_NEAR(weighted, reference, 1e-12);
    // One zone covers s cells on average: sum of P over cells == s.
    EXPECT_NEAR(weighted, static_cast<double>(s), 1e-12);
}

// --------------------------------------------- router / QSPR invariants ----

class RouterTopologySweep : public ::testing::TestWithParam<lf::TopologyKind> {};

TEST_P(RouterTopologySweep, MazeRoutesAreAdjacentHopChains) {
    const auto kind = GetParam();
    const int width = kind == lf::TopologyKind::Line ? 64 : 9;
    const int height = kind == lf::TopologyKind::Line ? 1 : 7;
    const auto topology = lf::make_topology(kind, width, height);
    const lf::Topology& topo = *topology;
    const lq::MazeRouter router(topo, 3);
    lq::ChannelReservations channels(topo.num_segments(), 2, 100.0);

    leqa::util::Rng rng(37);
    for (int trial = 0; trial < 40; ++trial) {
        const auto a = random_coord(rng, topo);
        const auto b = random_coord(rng, topo);
        const auto route = router.route(a, b, trial * 50.0, channels, 2, 100.0);
        EXPECT_EQ(follow_route(topo, topo.ulb_id(a), route), topo.ulb_id(b));
        if (a == b) {
            EXPECT_TRUE(route.empty());
        }
        // Seed congestion so later trials route under pressure.
        (void)channels.route(route, trial * 50.0);
    }
}

TEST_P(RouterTopologySweep, QsprMapsEndToEnd) {
    const auto kind = GetParam();
    lf::PhysicalParams params;
    params.topology = kind;
    params.width = kind == lf::TopologyKind::Line ? 64 : 8;
    params.height = kind == lf::TopologyKind::Line ? 1 : 8;
    const auto ft = leqa::synth::ft_synthesize(lb::ham3()).circuit;
    for (const auto routing : {lq::RoutingAlgorithm::Maze, lq::RoutingAlgorithm::Xy}) {
        lq::QsprOptions options;
        options.routing = routing;
        const auto result = lq::QsprMapper(params, options).map(ft);
        EXPECT_GT(result.latency_us, 0.0) << lq::routing_algorithm_name(routing);
        // Deterministic re-run.
        EXPECT_DOUBLE_EQ(lq::QsprMapper(params, options).map(ft).latency_us,
                         result.latency_us);
    }
}

INSTANTIATE_TEST_SUITE_P(Kinds, RouterTopologySweep,
                         ::testing::Values(lf::TopologyKind::Grid,
                                           lf::TopologyKind::Torus,
                                           lf::TopologyKind::Line));

TEST(QsprTopology, UncongestedMazeRoutesNeverLongerOnTorus) {
    // With empty channels the maze router's cost is hops * Tmove, so its
    // routes are shortest paths; on the same geometry the torus metric can
    // only help, route by route.
    const lf::GridTopology grid(11, 9);
    const lf::TorusTopology torus(11, 9);
    const lq::MazeRouter grid_router(grid, 4);
    const lq::MazeRouter torus_router(torus, 4);
    const lq::ChannelReservations empty_grid(grid.num_segments(), 5, 100.0);
    const lq::ChannelReservations empty_torus(torus.num_segments(), 5, 100.0);

    leqa::util::Rng rng(53);
    for (int trial = 0; trial < 60; ++trial) {
        const auto a = random_coord(rng, grid);
        const auto b = random_coord(rng, grid);
        const auto on_grid = grid_router.route(a, b, 0.0, empty_grid, 5, 100.0);
        const auto on_torus = torus_router.route(a, b, 0.0, empty_torus, 5, 100.0);
        EXPECT_EQ(on_grid.size(), static_cast<std::size_t>(grid.distance(a, b)));
        EXPECT_EQ(on_torus.size(), static_cast<std::size_t>(torus.distance(a, b)));
        EXPECT_LE(on_torus.size(), on_grid.size());
    }
}

// --------------------------------------------------- estimation engine -----

TEST(EngineTopology, GridMatchesReferenceAcrossBenchSuite) {
    // The tentpole parity bar restated on the topology axis: an explicit
    // grid topology must reproduce the pre-topology golden path to 1e-9.
    for (const auto& spec : lb::paper_suite()) {
        if (spec.paper_ops > 20000) continue; // keep runtime modest
        const auto ft = lb::make_ft_benchmark(spec.name).circuit;
        const leqa::qodg::Qodg graph(ft);
        const leqa::iig::Iig iig(ft);
        const auto profile = lcore::CircuitProfile::build(graph, iig);
        lf::PhysicalParams params;
        params.topology = lf::TopologyKind::Grid;
        const auto staged = lcore::EstimationEngine(params).estimate(profile);
        const auto golden =
            lcore::LeqaEstimator(params).estimate_reference(graph, iig);
        const double scale = std::max(std::abs(golden.latency_us), 1e-300);
        EXPECT_LE(std::abs(staged.latency_us - golden.latency_us) / scale, 1e-9)
            << spec.name;
    }
}

TEST(EngineTopology, TorusAndLineEstimateEndToEnd) {
    const auto ft = lb::make_ft_benchmark("gf2^16mult").circuit;
    const leqa::qodg::Qodg graph(ft);
    const leqa::iig::Iig iig(ft);
    const auto profile = lcore::CircuitProfile::build(graph, iig);

    lf::PhysicalParams grid;
    const auto on_grid = lcore::EstimationEngine(grid).estimate(profile);

    lf::PhysicalParams torus = grid;
    torus.topology = lf::TopologyKind::Torus;
    const auto on_torus = lcore::EstimationEngine(torus).estimate(profile);

    lf::PhysicalParams line = grid;
    line.topology = lf::TopologyKind::Line;
    line.width = grid.width * grid.height;
    line.height = 1;
    const auto on_line = lcore::EstimationEngine(line).estimate(profile);

    for (const auto* estimate : {&on_torus, &on_line}) {
        EXPECT_GT(estimate->latency_us, 0.0);
        EXPECT_TRUE(std::isfinite(estimate->latency_us));
        EXPECT_GT(estimate->l_cnot_avg_us, 0.0);
        EXPECT_EQ(estimate->e_sq.size(), on_grid.e_sq.size());
    }
    // Same circuit profile: the circuit-side statistics are unchanged.
    EXPECT_DOUBLE_EQ(on_torus.zone_area_b, on_grid.zone_area_b);
    EXPECT_DOUBLE_EQ(on_line.d_uncongest_us, on_grid.d_uncongest_us);
}

TEST(EngineTopology, ReferencePathRejectsNonGrid) {
    const auto ft = leqa::synth::ft_synthesize(lb::ham3()).circuit;
    const leqa::qodg::Qodg graph(ft);
    const leqa::iig::Iig iig(ft);
    lf::PhysicalParams params;
    params.topology = lf::TopologyKind::Torus;
    EXPECT_THROW((void)lcore::LeqaEstimator(params).estimate_reference(graph, iig),
                 InputError);
    const auto staged =
        lcore::EstimationEngine(params).estimate(lcore::CircuitProfile::build(graph, iig));
    EXPECT_GT(staged.latency_us, 0.0); // staged path fine
}

TEST(EngineTopology, SweepTopologyCoversAllKinds) {
    const auto ft = leqa::synth::ft_synthesize(lb::ham3()).circuit;
    const leqa::qodg::Qodg graph(ft);
    const leqa::iig::Iig iig(ft);
    const auto profile = lcore::CircuitProfile::build(graph, iig);
    lf::PhysicalParams base;
    base.width = 20;
    base.height = 20;
    lcore::ExplorationSpec spec;
    spec.topologies = {lf::TopologyKind::Grid, lf::TopologyKind::Torus,
                       lf::TopologyKind::Line};
    const auto sweep = lcore::explore(profile, base, spec);
    ASSERT_EQ(sweep.points.size(), 3u);
    EXPECT_EQ(sweep.points[0].params.topology, lf::TopologyKind::Grid);
    EXPECT_EQ(sweep.points[2].params.topology, lf::TopologyKind::Line);
    EXPECT_EQ(sweep.points[2].params.width, 400); // area-preserving row
    EXPECT_EQ(sweep.points[2].params.height, 1);
    for (const auto& point : sweep.points) {
        EXPECT_GT(point.estimate.latency_us, 0.0);
    }
}
