// Tests for the pluggable fabric topologies: closed-form links against a
// brute-force scan of the hop metric, grid bit-compatibility with the
// pre-topology geometry, torus/line adjacency and metric invariants, torus
// rings against a set-deduplicated offset walk, coverage histograms,
// routing (every route equals a row-then-column walk written hop by hop,
// and is a chain of linked hops; torus routes never beat their own metric
// or lose to grid routes), and the topology-aware estimation engine.
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

/// Walk a segment route from `from`, requiring every hop to be one of the
/// cursor's links; returns the final ULB.
lf::UlbId follow_route(const lf::Topology& topo, lf::UlbId from,
                       const std::vector<lf::SegmentId>& route) {
    lf::UlbId cursor = from;
    for (const lf::SegmentId segment : route) {
        const lf::Links links = topo.links(cursor);
        const auto hop = std::find_if(links.begin(), links.end(), [&](const lf::Link& link) {
            return link.segment == segment;
        });
        if (hop == links.end()) {
            ADD_FAILURE() << "segment " << segment << " does not leave ULB " << cursor;
            return cursor;
        }
        cursor = hop->ulb;
    }
    return cursor;
}

bool linked(const lf::Topology& topo, lf::UlbCoord a, lf::UlbCoord b) {
    const lf::Links links = topo.links(topo.ulb_id(a));
    return std::any_of(links.begin(), links.end(), [&](const lf::Link& link) {
        return link.ulb == topo.ulb_id(b);
    });
}

/// The route every topology must take, written hop by hop: along the row,
/// then along the column; on a torus each axis the shorter way round, a tie
/// going the positive way.  Each hop's segment id is read from the links
/// with segment_between.
std::vector<lf::SegmentId> row_then_column_walk(const lf::Topology& topo, lf::UlbCoord a,
                                                lf::UlbCoord b) {
    const bool wraps = topo.kind() == lf::TopologyKind::Torus;
    std::vector<lf::SegmentId> walk;
    lf::UlbCoord cursor = a;
    const auto walk_axis = [&](int lf::UlbCoord::*axis, int target, int dim) {
        const int forward = ((target - cursor.*axis) % dim + dim) % dim;
        const int backward = (dim - forward) % dim;
        int hops = std::abs(target - cursor.*axis);
        int step = target > cursor.*axis ? 1 : -1;
        if (wraps) {
            hops = std::min(forward, backward);
            step = forward <= backward ? 1 : -1;
        }
        for (int hop = 0; hop < hops; ++hop) {
            lf::UlbCoord next = cursor;
            next.*axis = (cursor.*axis + step + dim) % dim;
            walk.push_back(topo.segment_between(topo.ulb_id(cursor), topo.ulb_id(next)));
            cursor = next;
        }
    };
    walk_axis(&lf::UlbCoord::x, b.x, topo.width());
    walk_axis(&lf::UlbCoord::y, b.y, topo.height());
    return walk;
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

// ------------------------------------------------- links vs brute force --

TEST(TopologyLinks, MatchBruteForceScanOfTheHopMetric) {
    // A ULB's links reach exactly the ULBs one hop away, each once; the
    // validator then checks their segment ids (in range, symmetric, two
    // links per segment).
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
        std::size_t total_links = 0;
        for (lf::UlbId u = 0; static_cast<std::size_t>(u) < n; ++u) {
            const lf::UlbCoord cu = topo.ulb_coord(u);
            std::vector<lf::UlbId> want;
            for (lf::UlbId v = 0; static_cast<std::size_t>(v) < n; ++v) {
                if (topo.distance(cu, topo.ulb_coord(v)) == 1) want.push_back(v);
            }
            std::vector<lf::UlbId> got;
            for (const lf::Link link : topo.links(u)) got.push_back(link.ulb);
            total_links += got.size();
            std::sort(got.begin(), got.end());
            EXPECT_EQ(got, want) << label << " ULB " << cu.to_string();
        }
        EXPECT_EQ(total_links, 2 * topo.num_segments()) << label;
        EXPECT_EQ(lf::validate_topology(topo, n * n), "") << label;
    }
}

TEST(TopologyLinks, OrderIsLeftRightUpDown) {
    const lf::TorusTopology torus(5, 4);
    const lf::Links corner = torus.links(torus.ulb_id({0, 0}));
    ASSERT_EQ(corner.count, 4);
    EXPECT_EQ(corner.link[0].ulb, torus.ulb_id({4, 0})); // left, across the seam
    EXPECT_EQ(corner.link[1].ulb, torus.ulb_id({1, 0}));
    EXPECT_EQ(corner.link[2].ulb, torus.ulb_id({0, 3})); // up, across the seam
    EXPECT_EQ(corner.link[3].ulb, torus.ulb_id({0, 1}));

    const lf::GridTopology grid(5, 4);
    const lf::Links inner = grid.links(grid.ulb_id({2, 1}));
    ASSERT_EQ(inner.count, 4);
    EXPECT_EQ(inner.link[0].ulb, grid.ulb_id({1, 1}));
    EXPECT_EQ(inner.link[1].ulb, grid.ulb_id({3, 1}));
    EXPECT_EQ(inner.link[2].ulb, grid.ulb_id({2, 0}));
    EXPECT_EQ(inner.link[3].ulb, grid.ulb_id({2, 2}));
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
}

TEST(TopologyRoute, EveryPairWalksTheRowThenTheColumn) {
    // Every route is a closed form; the walk it must equal reads each hop's
    // segment from the links, so a wrong wrap id, direction, tie or axis
    // order fails on the first pair it touches.
    std::vector<std::shared_ptr<const lf::Topology>> topologies;
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {1, 1}, {1, 12}, {12, 1}, {7, 4}, {16, 16}}) {
        topologies.push_back(lf::make_topology(lf::TopologyKind::Grid, w, h));
    }
    topologies.push_back(lf::make_topology(lf::TopologyKind::Line, 40, 1));
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {1, 6}, {2, 7}, {3, 3}, {5, 5}, {6, 4}, {9, 7}}) {
        topologies.push_back(lf::make_topology(lf::TopologyKind::Torus, w, h));
    }
    std::vector<lf::SegmentId> route;
    for (const auto& topology : topologies) {
        const lf::Topology& topo = *topology;
        const std::string label = topo.name() + " " + std::to_string(topo.width()) +
                                  "x" + std::to_string(topo.height());
        for (lf::UlbId a = 0; static_cast<std::size_t>(a) < topo.num_ulbs(); ++a) {
            for (lf::UlbId b = 0; static_cast<std::size_t>(b) < topo.num_ulbs(); ++b) {
                const lf::UlbCoord ca = topo.ulb_coord(a);
                const lf::UlbCoord cb = topo.ulb_coord(b);
                topo.route(ca, cb, route);
                ASSERT_EQ(route, row_then_column_walk(topo, ca, cb))
                    << label << " " << ca.to_string() << " -> " << cb.to_string();
                ASSERT_EQ(route.size(), static_cast<std::size_t>(topo.distance(ca, cb)))
                    << label << " " << ca.to_string() << " -> " << cb.to_string();
            }
        }
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
    EXPECT_TRUE(linked(topo, {0, 0}, {5, 0}));
    EXPECT_TRUE(linked(topo, {2, 0}, {2, 3}));
    // Every ULB has degree 4 on a torus with both dims >= 3.
    for (lf::UlbId id = 0; static_cast<std::size_t>(id) < topo.num_ulbs(); ++id) {
        EXPECT_EQ(topo.links(id).count, 4);
    }
    EXPECT_EQ(topo.distance({0, 0}, {5, 0}), 1);
    EXPECT_EQ(topo.distance({0, 0}, {3, 2}), 3 + 2);
    EXPECT_EQ(topo.distance({1, 1}, {5, 3}), 2 + 2);
}

TEST(TorusTopology, SmallDimensionsHaveNoParallelChannels) {
    // Wrap channels only along dimensions >= 3: no ULB pair may be
    // connected twice, and every segment joins one pair.
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {2, 2}, {1, 5}, {2, 7}, {3, 2}, {1, 1}}) {
        const lf::TorusTopology topo(w, h);
        std::set<std::pair<lf::UlbId, lf::UlbId>> pairs;
        std::set<lf::SegmentId> segments;
        for (lf::UlbId u = 0; static_cast<std::size_t>(u) < topo.num_ulbs(); ++u) {
            for (const lf::Link link : topo.links(u)) {
                if (link.ulb < u) continue; // each pair once, from its lower end
                EXPECT_TRUE(pairs.insert({u, link.ulb}).second)
                    << w << "x" << h << " duplicate pair " << u << "-" << link.ulb;
                EXPECT_TRUE(segments.insert(link.segment).second)
                    << w << "x" << h << " segment " << link.segment << " joins two pairs";
            }
        }
        EXPECT_EQ(segments.size(), topo.num_segments()) << w << "x" << h;
    }
}

TEST(TorusTopology, RoutesAreShortestAndAdjacent) {
    const lf::TorusTopology topo(9, 7);
    leqa::util::Rng rng(23);
    std::vector<lf::SegmentId> route;
    for (int trial = 0; trial < 60; ++trial) {
        const auto a = random_coord(rng, topo);
        const auto b = random_coord(rng, topo);
        topo.route(a, b, route);
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
    std::vector<lf::SegmentId> grid_route;
    std::vector<lf::SegmentId> torus_route;
    for (int x0 = 0; x0 < 12; x0 += 3) {
        for (int y0 = 0; y0 < 12; y0 += 3) {
            for (int x1 = 0; x1 < 12; x1 += 3) {
                for (int y1 = 0; y1 < 12; y1 += 3) {
                    const lf::UlbCoord a{x0, y0};
                    const lf::UlbCoord b{x1, y1};
                    grid.route(a, b, grid_route);
                    torus.route(a, b, torus_route);
                    EXPECT_LE(torus_route.size(), grid_route.size());
                    if (torus_route.size() < grid_route.size()) ++strict_wins;
                }
            }
        }
    }
    EXPECT_GT(strict_wins, 0u);
    torus.route({0, 0}, {11, 11}, torus_route);
    grid.route({0, 0}, {11, 11}, grid_route);
    EXPECT_LT(torus_route.size(), grid_route.size());
}

TEST(TorusTopology, RingsCoverFabricExactlyOnce) {
    for (const auto& [w, h] : std::vector<std::pair<int, int>>{
             {5, 4}, {6, 6}, {3, 9}, {1, 7}, {2, 2}}) {
        const lf::TorusTopology topo(w, h);
        const lf::UlbCoord center{w / 2, h / 3};
        std::set<std::pair<int, int>> seen;
        std::vector<lf::UlbCoord> ring;
        for (int r = 0; r <= std::max(w, h); ++r) {
            topo.ring(center, r, ring);
            for (const auto c : ring) {
                EXPECT_TRUE(topo.in_bounds(c));
                EXPECT_TRUE(seen.insert({c.x, c.y}).second)
                    << w << "x" << h << " duplicate " << c.to_string() << " r=" << r;
            }
        }
        EXPECT_EQ(seen.size(), topo.num_ulbs()) << w << "x" << h;
    }
}

TEST(TorusTopology, RingsMatchTheSetDeduplicatedOffsetWalk) {
    // The reference ring: the grid ring's offsets, wrapped, kept at torus
    // L-infinity distance exactly r, and deduplicated through a set at
    // first sight.  The closed-form skip rules must reproduce it cell for
    // cell and in order, for every centre and every radius.
    const auto reference = [](const lf::TorusTopology& topo, lf::UlbCoord center, int r) {
        const int w = topo.width();
        const int h = topo.height();
        std::vector<lf::UlbCoord> out;
        std::set<std::pair<int, int>> seen;
        const auto emit = [&](int dx, int dy) {
            const lf::UlbCoord c{((center.x + dx) % w + w) % w, ((center.y + dy) % h + h) % h};
            const int ax = std::abs(c.x - center.x);
            const int ay = std::abs(c.y - center.y);
            if (std::max(std::min(ax, w - ax), std::min(ay, h - ay)) != r) return;
            if (seen.insert({c.x, c.y}).second) out.push_back(c);
        };
        if (r == 0) return std::vector<lf::UlbCoord>{center};
        for (int dx = -r; dx <= r; ++dx) {
            emit(dx, -r);
            emit(dx, r);
        }
        for (int dy = -r + 1; dy <= r - 1; ++dy) {
            emit(-r, dy);
            emit(r, dy);
        }
        return out;
    };
    std::vector<lf::UlbCoord> ring;
    for (int w = 1; w <= 9; ++w) {
        for (int h = 1; h <= 9; ++h) {
            const lf::TorusTopology topo(w, h);
            for (lf::UlbId id = 0; static_cast<std::size_t>(id) < topo.num_ulbs(); ++id) {
                const lf::UlbCoord center = topo.ulb_coord(id);
                for (int r = 0; r <= std::max(w, h) + 1; ++r) {
                    topo.ring(center, r, ring);
                    ASSERT_EQ(ring, reference(topo, center, r))
                        << w << "x" << h << " centre " << center.to_string() << " r=" << r;
                }
            }
        }
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
    std::vector<lf::SegmentId> route;
    topo.route({0, 0}, {7, 0}, route);
    EXPECT_EQ(route.size(), 7u);
    EXPECT_EQ(follow_route(topo, topo.ulb_id({0, 0}), route), topo.ulb_id({7, 0}));
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
    std::vector<lf::SegmentId> route;
    for (int trial = 0; trial < 40; ++trial) {
        const auto a = random_coord(rng, topo);
        const auto b = random_coord(rng, topo);
        router.route(a, b, trial * 50.0, channels, route);
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
    std::vector<lf::SegmentId> on_grid;
    std::vector<lf::SegmentId> on_torus;
    for (int trial = 0; trial < 60; ++trial) {
        const auto a = random_coord(rng, grid);
        const auto b = random_coord(rng, grid);
        grid_router.route(a, b, 0.0, empty_grid, on_grid);
        torus_router.route(a, b, 0.0, empty_torus, on_torus);
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
