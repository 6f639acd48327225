// Tests for the fabric module: physical parameters (Table 1) and the grid
// geometry (segments, XY routing, rings) as `GridTopology` answers it.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>

#include "fabric/topology.h"
#include "fabric/params.h"
#include "util/error.h"

namespace lf = leqa::fabric;
namespace lc = leqa::circuit;
using leqa::util::InputError;

// ----------------------------------------------------------------- params --

TEST(Params, Table1Defaults) {
    const lf::PhysicalParams params;
    EXPECT_DOUBLE_EQ(params.d_h_us, 5440.0);
    EXPECT_DOUBLE_EQ(params.d_t_us, 10940.0);
    EXPECT_DOUBLE_EQ(params.d_pauli_us, 5240.0);
    EXPECT_DOUBLE_EQ(params.d_cnot_us, 4930.0);
    EXPECT_EQ(params.nc, 5);
    EXPECT_DOUBLE_EQ(params.v, 0.001);
    EXPECT_EQ(params.width, 60);
    EXPECT_EQ(params.height, 60);
    EXPECT_DOUBLE_EQ(params.t_move_us, 100.0);
    EXPECT_EQ(params.area(), 3600);
    EXPECT_DOUBLE_EQ(params.one_qubit_routing_latency_us(), 200.0);
    EXPECT_NO_THROW(params.validate());
}

TEST(Params, DelayLookup) {
    const lf::PhysicalParams params;
    EXPECT_DOUBLE_EQ(params.delay_us(lc::GateKind::H), 5440.0);
    EXPECT_DOUBLE_EQ(params.delay_us(lc::GateKind::T), 10940.0);
    EXPECT_DOUBLE_EQ(params.delay_us(lc::GateKind::Tdg), 10940.0);
    EXPECT_DOUBLE_EQ(params.delay_us(lc::GateKind::X), 5240.0);
    EXPECT_DOUBLE_EQ(params.delay_us(lc::GateKind::Cnot), 4930.0);
    EXPECT_THROW((void)params.delay_us(lc::GateKind::Toffoli), InputError);
}

TEST(Params, ConfigRoundTrip) {
    lf::PhysicalParams params;
    params.d_t_us = 999.0;
    params.nc = 3;
    params.width = 40;
    params.v = 0.01;
    const auto parsed = lf::PhysicalParams::from_config(params.to_config());
    EXPECT_EQ(parsed, params);
}

TEST(Params, ConfigPartialOverride) {
    const auto params = lf::PhysicalParams::from_config("nc = 7\nwidth = 80\n");
    EXPECT_EQ(params.nc, 7);
    EXPECT_EQ(params.width, 80);
    EXPECT_DOUBLE_EQ(params.d_h_us, 5440.0); // untouched default
}

TEST(Params, ConfigDiagnostics) {
    EXPECT_THROW((void)lf::PhysicalParams::from_config("bogus_key = 1\n"), InputError);
    EXPECT_THROW((void)lf::PhysicalParams::from_config("nc\n"), InputError);
    EXPECT_THROW((void)lf::PhysicalParams::from_config("nc = abc\n"), InputError);
    EXPECT_THROW((void)lf::PhysicalParams::from_config("nc = 0\n"), InputError); // validate()
    // Integer keys are never truncated or wrapped into range.
    EXPECT_THROW((void)lf::PhysicalParams::from_config("nc = 2.5\n"), InputError);
    EXPECT_THROW((void)lf::PhysicalParams::from_config("width = 1e12\n"), InputError);
    try {
        (void)lf::PhysicalParams::from_config("nc = 3\nwidth = 30.9\n");
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("config line 2"), std::string::npos) << e.what();
    }
    EXPECT_EQ(lf::PhysicalParams::from_config("height = 40.0\n").height, 40);
}

TEST(Params, ValidateRejectsNonPhysical) {
    lf::PhysicalParams params;
    params.v = 0.0;
    EXPECT_THROW(params.validate(), InputError);
    params = {};
    params.width = 0;
    EXPECT_THROW(params.validate(), InputError);
    params = {};
    params.d_cnot_us = -1.0;
    EXPECT_THROW(params.validate(), InputError);
}

TEST(Params, TopologyConfigRoundTrip) {
    lf::PhysicalParams params;
    params.topology = lf::TopologyKind::Torus;
    const std::string text = params.to_config();
    EXPECT_NE(text.find("topology = torus"), std::string::npos);
    EXPECT_EQ(lf::PhysicalParams::from_config(text), params);

    params.topology = lf::TopologyKind::Line;
    params.width = 3600;
    params.height = 1;
    EXPECT_EQ(lf::PhysicalParams::from_config(params.to_config()), params);

    // Defaults stay grid; unknown topologies are rejected.
    EXPECT_EQ(lf::PhysicalParams::from_config("nc = 3\n").topology,
              lf::TopologyKind::Grid);
    EXPECT_THROW((void)lf::PhysicalParams::from_config("topology = klein\n"),
                 InputError);
}

TEST(Params, LineTopologyRequiresUnitHeight) {
    lf::PhysicalParams params;
    params.topology = lf::TopologyKind::Line;
    EXPECT_THROW(params.validate(), InputError); // default 60x60 is not a row
    try {
        (void)lf::PhysicalParams::from_config("topology = line\n");
        FAIL() << "expected InputError";
    } catch (const InputError& e) {
        EXPECT_NE(std::string(e.what()).find("height = 1"), std::string::npos);
    }
    params.width = 3600;
    params.height = 1;
    EXPECT_NO_THROW(params.validate());
}

TEST(Params, FileRoundTrip) {
    lf::PhysicalParams params;
    params.height = 33;
    const std::string path = ::testing::TempDir() + "/leqa_params_test.cfg";
    params.save(path);
    EXPECT_EQ(lf::PhysicalParams::load(path), params);
    std::remove(path.c_str());
}

// --------------------------------------------------------------- geometry --
//
// The grid's coordinate space, segments, XY routes and rings, queried on the
// topology itself.

TEST(Geometry, UlbIndexRoundTrip) {
    const lf::GridTopology geo(7, 5);
    EXPECT_EQ(geo.num_ulbs(), 35u);
    for (int y = 0; y < 5; ++y) {
        for (int x = 0; x < 7; ++x) {
            const lf::UlbCoord c{x, y};
            EXPECT_EQ(geo.ulb_coord(geo.ulb_id(c)), c);
        }
    }
    EXPECT_THROW((void)geo.ulb_id({7, 0}), InputError);
    EXPECT_THROW((void)geo.ulb_coord(35), InputError);
}

TEST(Geometry, SegmentCountAndUniqueness) {
    const lf::GridTopology geo(4, 3);
    // horizontal: 3*3 = 9, vertical: 4*2 = 8.
    EXPECT_EQ(geo.num_segments(), 17u);
    std::set<lf::SegmentId> ids;
    for (int y = 0; y < 3; ++y) {
        for (int x = 0; x < 4; ++x) {
            const lf::UlbId u = geo.ulb_id({x, y});
            for (const auto n : geo.neighbors(u)) {
                const auto id = geo.segment_between(u, static_cast<lf::UlbId>(n));
                EXPECT_GE(id, 0);
                EXPECT_LT(static_cast<std::size_t>(id), geo.num_segments());
                ids.insert(id);
            }
        }
    }
    EXPECT_EQ(ids.size(), geo.num_segments()); // every segment reachable
}

TEST(Geometry, SegmentSymmetric) {
    const lf::GridTopology geo(5, 5);
    const auto segment = [&](lf::UlbCoord a, lf::UlbCoord b) {
        return geo.segment_between(geo.ulb_id(a), geo.ulb_id(b));
    };
    EXPECT_EQ(segment({1, 1}, {2, 1}), segment({2, 1}, {1, 1}));
    EXPECT_EQ(segment({3, 2}, {3, 3}), segment({3, 3}, {3, 2}));
    EXPECT_THROW((void)segment({0, 0}, {2, 0}), InputError); // not adjacent
    EXPECT_THROW((void)segment({0, 0}, {1, 1}), InputError); // diagonal
}

TEST(Geometry, XyRouteLengthEqualsManhattan) {
    const lf::GridTopology geo(10, 8);
    const lf::UlbCoord a{1, 2};
    const lf::UlbCoord b{7, 6};
    const auto route = geo.route(a, b);
    EXPECT_EQ(route.size(), static_cast<std::size_t>(geo.distance(a, b)));
    EXPECT_EQ(geo.distance(a, b), 10);
    EXPECT_TRUE(geo.route(a, a).empty());
    // Route in reverse direction also works (negative steps).
    EXPECT_EQ(geo.route(b, a).size(), 10u);
}

TEST(Geometry, XyRouteSegmentsAreConnected) {
    const lf::GridTopology geo(6, 6);
    // The route's segments must be pairwise distinct for a shortest path.
    const auto route = geo.route({0, 0}, {5, 5});
    const std::set<lf::SegmentId> unique(route.begin(), route.end());
    EXPECT_EQ(unique.size(), route.size());
}

TEST(Geometry, RingsCoverFabricExactlyOnce) {
    const lf::GridTopology geo(5, 4);
    const lf::UlbCoord center{2, 1};
    std::set<std::pair<int, int>> seen;
    for (int r = 0; r <= 6; ++r) {
        for (const auto c : geo.ring(center, r)) {
            EXPECT_TRUE(geo.in_bounds(c));
            const bool inserted = seen.insert({c.x, c.y}).second;
            EXPECT_TRUE(inserted) << "duplicate " << c.to_string() << " at r=" << r;
            // Every ring member is at L-infinity distance exactly r.
            EXPECT_EQ(std::max(std::abs(c.x - center.x), std::abs(c.y - center.y)), r);
        }
    }
    EXPECT_EQ(seen.size(), geo.num_ulbs());
}

TEST(Geometry, RingZeroIsCenter) {
    const lf::GridTopology geo(3, 3);
    const auto ring = geo.ring({1, 1}, 0);
    ASSERT_EQ(ring.size(), 1u);
    EXPECT_EQ(ring[0], (lf::UlbCoord{1, 1}));
}

TEST(Geometry, NeighborsClippedAtBoundary) {
    const lf::GridTopology geo(3, 3);
    EXPECT_EQ(geo.neighbors(geo.ulb_id({0, 0})).size(), 2u);
    EXPECT_EQ(geo.neighbors(geo.ulb_id({1, 0})).size(), 3u);
    EXPECT_EQ(geo.neighbors(geo.ulb_id({1, 1})).size(), 4u);
}

TEST(Geometry, Midpoint) {
    const lf::GridTopology geo(10, 10);
    EXPECT_EQ(geo.midpoint({0, 0}, {4, 6}), (lf::UlbCoord{2, 3}));
    EXPECT_EQ(geo.midpoint({3, 3}, {3, 3}), (lf::UlbCoord{3, 3}));
    EXPECT_EQ(geo.midpoint({0, 0}, {1, 1}), (lf::UlbCoord{0, 0}));
}

TEST(Geometry, DegenerateOneByOne) {
    const lf::GridTopology geo(1, 1);
    EXPECT_EQ(geo.num_ulbs(), 1u);
    EXPECT_EQ(geo.num_segments(), 0u);
    EXPECT_TRUE(geo.route({0, 0}, {0, 0}).empty());
}

TEST(Geometry, SingleRowFabric) {
    const lf::GridTopology geo(8, 1);
    EXPECT_EQ(geo.num_segments(), 7u);
    EXPECT_EQ(geo.route({0, 0}, {7, 0}).size(), 7u);
}
