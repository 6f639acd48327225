// Pins the QSPR mapper's output on a fixed matrix of maps.  Four circuits
// (gf2^16mult, hwb15ps, 8bitadder, gf2^50mult) map onto a 60x60 grid, a
// 60x60 torus and a 3600x1 line, each with XY and maze routing and with
// centered-block and random placement, at the default Nc = 5.  Two more
// circuits map onto 7x7 and 9x6 tori at Nc = 1, where the nearest-ULB rings
// wrap both seams (gf2^16mult puts 48 qubits on 49 ULBs).  Every row's
// latency and stats line were recorded from the mapper and must reproduce
// exactly, so a change to routes, rings, link order or channel bookkeeping
// that moves a single decision fails here.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "benchgen/suite.h"
#include "fabric/topology.h"
#include "qspr/placement.h"
#include "qspr/qspr.h"
#include "qspr/router.h"

namespace lf = leqa::fabric;
namespace lq = leqa::qspr;

namespace {

using Kind = lf::TopologyKind;
using Routing = lq::RoutingAlgorithm;
using Placement = lq::PlacementStrategy;

struct GoldenMap {
    const char* circuit;
    Kind topology;
    int width;
    int height;
    int nc;
    Routing routing;
    Placement placement;
    double latency_us;
    const char* stats;
};

const GoldenMap kGolden[] = {
    {"gf2^16mult", Kind::Grid, 60, 60, 5, Routing::Xy, Placement::CenteredBlock,
     15798930, "1q ops: 2304, cnots: 1581, hops: 11312, evictions: 1339, relocations: 35"
     ", route time: 1.32155e+06 us, delayed hops: 0, channel wait: 190350 us"
     ", max slot occupancy: 3"},
    {"gf2^16mult", Kind::Grid, 60, 60, 5, Routing::Xy, Placement::Random,
     15839130, "1q ops: 2304, cnots: 1581, hops: 12813, evictions: 1347, relocations: 48"
     ", route time: 1.47217e+06 us, delayed hops: 0, channel wait: 190870 us"
     ", max slot occupancy: 2"},
    {"gf2^16mult", Kind::Grid, 60, 60, 5, Routing::Maze, Placement::CenteredBlock,
     15798930, "1q ops: 2304, cnots: 1581, hops: 11312, evictions: 1339, relocations: 35"
     ", route time: 1.32155e+06 us, delayed hops: 0, channel wait: 190350 us"
     ", max slot occupancy: 2"},
    {"gf2^16mult", Kind::Grid, 60, 60, 5, Routing::Maze, Placement::Random,
     15839130, "1q ops: 2304, cnots: 1581, hops: 12813, evictions: 1347, relocations: 48"
     ", route time: 1.47217e+06 us, delayed hops: 0, channel wait: 190870 us"
     ", max slot occupancy: 3"},
    {"gf2^16mult", Kind::Torus, 60, 60, 5, Routing::Xy, Placement::CenteredBlock,
     15915630, "1q ops: 2304, cnots: 1581, hops: 14673, evictions: 1573, relocations: 0"
     ", route time: 1.66885e+06 us, delayed hops: 0, channel wait: 201550 us"
     ", max slot occupancy: 2"},
    {"gf2^16mult", Kind::Torus, 60, 60, 5, Routing::Xy, Placement::Random,
     15952130, "1q ops: 2304, cnots: 1581, hops: 16028, evictions: 1581, relocations: 0"
     ", route time: 1.80565e+06 us, delayed hops: 0, channel wait: 202850 us"
     ", max slot occupancy: 2"},
    {"gf2^16mult", Kind::Torus, 60, 60, 5, Routing::Maze, Placement::CenteredBlock,
     15915630, "1q ops: 2304, cnots: 1581, hops: 14673, evictions: 1573, relocations: 0"
     ", route time: 1.66885e+06 us, delayed hops: 0, channel wait: 201550 us"
     ", max slot occupancy: 2"},
    {"gf2^16mult", Kind::Torus, 60, 60, 5, Routing::Maze, Placement::Random,
     15952130, "1q ops: 2304, cnots: 1581, hops: 16028, evictions: 1581, relocations: 0"
     ", route time: 1.80565e+06 us, delayed hops: 0, channel wait: 202850 us"
     ", max slot occupancy: 2"},
    {"gf2^16mult", Kind::Line, 3600, 1, 5, Routing::Xy, Placement::CenteredBlock,
     15999130, "1q ops: 2304, cnots: 1581, hops: 16272, evictions: 1249, relocations: 73"
     ", route time: 1.812e+06 us, delayed hops: 0, channel wait: 184800 us"
     ", max slot occupancy: 3"},
    {"gf2^16mult", Kind::Line, 3600, 1, 5, Routing::Xy, Placement::Random,
     21621630, "1q ops: 2304, cnots: 1581, hops: 166756, evictions: 1528, relocations: 7"
     ", route time: 1.68785e+07 us, delayed hops: 0, channel wait: 202890 us"
     ", max slot occupancy: 3"},
    {"gf2^16mult", Kind::Line, 3600, 1, 5, Routing::Maze, Placement::CenteredBlock,
     15999130, "1q ops: 2304, cnots: 1581, hops: 16272, evictions: 1249, relocations: 73"
     ", route time: 1.812e+06 us, delayed hops: 0, channel wait: 184800 us"
     ", max slot occupancy: 3"},
    {"gf2^16mult", Kind::Line, 3600, 1, 5, Routing::Maze, Placement::Random,
     21621630, "1q ops: 2304, cnots: 1581, hops: 166756, evictions: 1528, relocations: 7"
     ", route time: 1.68785e+07 us, delayed hops: 0, channel wait: 202890 us"
     ", max slot occupancy: 3"},
    {"hwb15ps", Kind::Grid, 60, 60, 5, Routing::Xy, Placement::CenteredBlock,
     16809930, "1q ops: 2322, cnots: 1563, hops: 11036, evictions: 1293, relocations: 82"
     ", route time: 1.29777e+06 us, delayed hops: 0, channel wait: 194170 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Grid, 60, 60, 5, Routing::Xy, Placement::Random,
     16859030, "1q ops: 2322, cnots: 1563, hops: 12339, evictions: 1309, relocations: 82"
     ", route time: 1.42937e+06 us, delayed hops: 0, channel wait: 195470 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Grid, 60, 60, 5, Routing::Maze, Placement::CenteredBlock,
     16809930, "1q ops: 2322, cnots: 1563, hops: 11036, evictions: 1293, relocations: 82"
     ", route time: 1.29777e+06 us, delayed hops: 0, channel wait: 194170 us"
     ", max slot occupancy: 3"},
    {"hwb15ps", Kind::Grid, 60, 60, 5, Routing::Maze, Placement::Random,
     16859030, "1q ops: 2322, cnots: 1563, hops: 12339, evictions: 1309, relocations: 82"
     ", route time: 1.42937e+06 us, delayed hops: 0, channel wait: 195470 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Torus, 60, 60, 5, Routing::Xy, Placement::CenteredBlock,
     16908130, "1q ops: 2322, cnots: 1563, hops: 14340, evictions: 1552, relocations: 2"
     ", route time: 1.64747e+06 us, delayed hops: 0, channel wait: 213470 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Torus, 60, 60, 5, Routing::Xy, Placement::Random,
     16931730, "1q ops: 2322, cnots: 1563, hops: 15164, evictions: 1559, relocations: 0"
     ", route time: 1.73031e+06 us, delayed hops: 0, channel wait: 213910 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Torus, 60, 60, 5, Routing::Maze, Placement::CenteredBlock,
     16908130, "1q ops: 2322, cnots: 1563, hops: 14340, evictions: 1552, relocations: 2"
     ", route time: 1.64747e+06 us, delayed hops: 0, channel wait: 213470 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Torus, 60, 60, 5, Routing::Maze, Placement::Random,
     16931730, "1q ops: 2322, cnots: 1563, hops: 15164, evictions: 1559, relocations: 0"
     ", route time: 1.73031e+06 us, delayed hops: 0, channel wait: 213910 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Line, 3600, 1, 5, Routing::Xy, Placement::CenteredBlock,
     17164630, "1q ops: 2322, cnots: 1563, hops: 16866, evictions: 1245, relocations: 96"
     ", route time: 1.87993e+06 us, delayed hops: 0, channel wait: 193330 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Line, 3600, 1, 5, Routing::Xy, Placement::Random,
     22404630, "1q ops: 2322, cnots: 1563, hops: 153977, evictions: 1476, relocations: 29"
     ", route time: 1.56062e+07 us, delayed hops: 0, channel wait: 208480 us"
     ", max slot occupancy: 3"},
    {"hwb15ps", Kind::Line, 3600, 1, 5, Routing::Maze, Placement::CenteredBlock,
     17164630, "1q ops: 2322, cnots: 1563, hops: 16866, evictions: 1245, relocations: 96"
     ", route time: 1.87993e+06 us, delayed hops: 0, channel wait: 193330 us"
     ", max slot occupancy: 2"},
    {"hwb15ps", Kind::Line, 3600, 1, 5, Routing::Maze, Placement::Random,
     22404630, "1q ops: 2322, cnots: 1563, hops: 153977, evictions: 1476, relocations: 29"
     ", route time: 1.56062e+07 us, delayed hops: 0, channel wait: 208480 us"
     ", max slot occupancy: 3"},
    {"8bitadder", Kind::Grid, 60, 60, 5, Routing::Xy, Placement::CenteredBlock,
     1695530, "1q ops: 252, cnots: 198, hops: 1386, evictions: 190, relocations: 6"
     ", route time: 164370 us, delayed hops: 0, channel wait: 25770 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Grid, 60, 60, 5, Routing::Xy, Placement::Random,
     1718030, "1q ops: 252, cnots: 198, hops: 2425, evictions: 194, relocations: 3"
     ", route time: 268520 us, delayed hops: 0, channel wait: 26020 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Grid, 60, 60, 5, Routing::Maze, Placement::CenteredBlock,
     1695530, "1q ops: 252, cnots: 198, hops: 1386, evictions: 190, relocations: 6"
     ", route time: 164370 us, delayed hops: 0, channel wait: 25770 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Grid, 60, 60, 5, Routing::Maze, Placement::Random,
     1718030, "1q ops: 252, cnots: 198, hops: 2425, evictions: 194, relocations: 3"
     ", route time: 268520 us, delayed hops: 0, channel wait: 26020 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Torus, 60, 60, 5, Routing::Xy, Placement::CenteredBlock,
     1698430, "1q ops: 252, cnots: 198, hops: 1328, evictions: 195, relocations: 0"
     ", route time: 158880 us, delayed hops: 0, channel wait: 26080 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Torus, 60, 60, 5, Routing::Xy, Placement::Random,
     1721330, "1q ops: 252, cnots: 198, hops: 2315, evictions: 198, relocations: 0"
     ", route time: 257750 us, delayed hops: 0, channel wait: 26250 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Torus, 60, 60, 5, Routing::Maze, Placement::CenteredBlock,
     1698430, "1q ops: 252, cnots: 198, hops: 1328, evictions: 195, relocations: 0"
     ", route time: 158880 us, delayed hops: 0, channel wait: 26080 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Torus, 60, 60, 5, Routing::Maze, Placement::Random,
     1721330, "1q ops: 252, cnots: 198, hops: 2315, evictions: 198, relocations: 0"
     ", route time: 257750 us, delayed hops: 0, channel wait: 26250 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Line, 3600, 1, 5, Routing::Xy, Placement::CenteredBlock,
     1731130, "1q ops: 252, cnots: 198, hops: 2201, evictions: 159, relocations: 2"
     ", route time: 242180 us, delayed hops: 0, channel wait: 22080 us"
     ", max slot occupancy: 3"},
    {"8bitadder", Kind::Line, 3600, 1, 5, Routing::Xy, Placement::Random,
     2825630, "1q ops: 252, cnots: 198, hops: 45147, evictions: 195, relocations: 1"
     ", route time: 4.54062e+06 us, delayed hops: 0, channel wait: 25920 us"
     ", max slot occupancy: 2"},
    {"8bitadder", Kind::Line, 3600, 1, 5, Routing::Maze, Placement::CenteredBlock,
     1731130, "1q ops: 252, cnots: 198, hops: 2201, evictions: 159, relocations: 2"
     ", route time: 242180 us, delayed hops: 0, channel wait: 22080 us"
     ", max slot occupancy: 3"},
    {"8bitadder", Kind::Line, 3600, 1, 5, Routing::Maze, Placement::Random,
     2825630, "1q ops: 252, cnots: 198, hops: 45147, evictions: 195, relocations: 1"
     ", route time: 4.54062e+06 us, delayed hops: 0, channel wait: 25920 us"
     ", max slot occupancy: 2"},
    {"gf2^50mult", Kind::Grid, 60, 60, 5, Routing::Xy, Placement::CenteredBlock,
     151080030, "1q ops: 22500, cnots: 15147, hops: 111166, evictions: 12367, relocations: 350"
     ", route time: 1.29076e+07 us, delayed hops: 0, channel wait: 1.79102e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Grid, 60, 60, 5, Routing::Xy, Placement::Random,
     151001330, "1q ops: 22500, cnots: 15147, hops: 110201, evictions: 12318, relocations: 395"
     ", route time: 1.28135e+07 us, delayed hops: 0, channel wait: 1.79339e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Grid, 60, 60, 5, Routing::Maze, Placement::CenteredBlock,
     151080030, "1q ops: 22500, cnots: 15147, hops: 111166, evictions: 12367, relocations: 350"
     ", route time: 1.29076e+07 us, delayed hops: 0, channel wait: 1.79102e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Grid, 60, 60, 5, Routing::Maze, Placement::Random,
     151001330, "1q ops: 22500, cnots: 15147, hops: 110201, evictions: 12318, relocations: 395"
     ", route time: 1.28135e+07 us, delayed hops: 0, channel wait: 1.79339e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Torus, 60, 60, 5, Routing::Xy, Placement::CenteredBlock,
     151294030, "1q ops: 22500, cnots: 15147, hops: 123060, evictions: 15098, relocations: 4"
     ", route time: 1.42413e+07 us, delayed hops: 0, channel wait: 1.93529e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Torus, 60, 60, 5, Routing::Xy, Placement::Random,
     151013830, "1q ops: 22500, cnots: 15147, hops: 117790, evictions: 15139, relocations: 3"
     ", route time: 1.37148e+07 us, delayed hops: 0, channel wait: 1.93579e+06 us"
     ", max slot occupancy: 2"},
    {"gf2^50mult", Kind::Torus, 60, 60, 5, Routing::Maze, Placement::CenteredBlock,
     151294030, "1q ops: 22500, cnots: 15147, hops: 123060, evictions: 15098, relocations: 4"
     ", route time: 1.42413e+07 us, delayed hops: 0, channel wait: 1.93529e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Torus, 60, 60, 5, Routing::Maze, Placement::Random,
     151013830, "1q ops: 22500, cnots: 15147, hops: 117790, evictions: 15139, relocations: 3"
     ", route time: 1.37148e+07 us, delayed hops: 0, channel wait: 1.93579e+06 us"
     ", max slot occupancy: 2"},
    {"gf2^50mult", Kind::Line, 3600, 1, 5, Routing::Xy, Placement::CenteredBlock,
     156456830, "1q ops: 22500, cnots: 15147, hops: 247568, evictions: 12322, relocations: 505"
     ", route time: 2.65689e+07 us, delayed hops: 0, channel wait: 1.81214e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Line, 3600, 1, 5, Routing::Xy, Placement::Random,
     177323430, "1q ops: 22500, cnots: 15147, hops: 829015, evictions: 13927, relocations: 153"
     ", route time: 8.48175e+07 us, delayed hops: 0, channel wait: 1.91604e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Line, 3600, 1, 5, Routing::Maze, Placement::CenteredBlock,
     156456830, "1q ops: 22500, cnots: 15147, hops: 247568, evictions: 12322, relocations: 505"
     ", route time: 2.65689e+07 us, delayed hops: 0, channel wait: 1.81214e+06 us"
     ", max slot occupancy: 3"},
    {"gf2^50mult", Kind::Line, 3600, 1, 5, Routing::Maze, Placement::Random,
     177323430, "1q ops: 22500, cnots: 15147, hops: 829015, evictions: 13927, relocations: 153"
     ", route time: 8.48175e+07 us, delayed hops: 0, channel wait: 1.91604e+06 us"
     ", max slot occupancy: 3"},

    // Small tori at Nc = 1: nearest-ULB rings wrap both seams.
    {"gf2^16mult", Kind::Torus, 7, 7, 1, Routing::Xy, Placement::CenteredBlock,
     15855430, "1q ops: 2304, cnots: 1581, hops: 7827, evictions: 1176, relocations: 33"
     ", route time: 966770 us, delayed hops: 72, channel wait: 184070 us"
     ", max slot occupancy: 1"},
    {"gf2^16mult", Kind::Torus, 7, 7, 1, Routing::Xy, Placement::Random,
     15764730, "1q ops: 2304, cnots: 1581, hops: 7950, evictions: 1178, relocations: 27"
     ", route time: 979760 us, delayed hops: 76, channel wait: 184760 us"
     ", max slot occupancy: 1"},
    {"gf2^16mult", Kind::Torus, 7, 7, 1, Routing::Maze, Placement::CenteredBlock,
     15855530, "1q ops: 2304, cnots: 1581, hops: 7828, evictions: 1176, relocations: 33"
     ", route time: 966770 us, delayed hops: 71, channel wait: 183970 us"
     ", max slot occupancy: 1"},
    {"gf2^16mult", Kind::Torus, 7, 7, 1, Routing::Maze, Placement::Random,
     15764930, "1q ops: 2304, cnots: 1581, hops: 7950, evictions: 1178, relocations: 27"
     ", route time: 978860 us, delayed hops: 66, channel wait: 183860 us"
     ", max slot occupancy: 1"},
    {"gf2^16mult", Kind::Torus, 9, 6, 1, Routing::Xy, Placement::CenteredBlock,
     15737430, "1q ops: 2304, cnots: 1581, hops: 8113, evictions: 1183, relocations: 32"
     ", route time: 996720 us, delayed hops: 74, channel wait: 185420 us"
     ", max slot occupancy: 1"},
    {"gf2^16mult", Kind::Torus, 9, 6, 1, Routing::Xy, Placement::Random,
     15766130, "1q ops: 2304, cnots: 1581, hops: 8353, evictions: 1196, relocations: 28"
     ", route time: 1.01942e+06 us, delayed hops: 66, channel wait: 184120 us"
     ", max slot occupancy: 1"},
    {"gf2^16mult", Kind::Torus, 9, 6, 1, Routing::Maze, Placement::CenteredBlock,
     15737530, "1q ops: 2304, cnots: 1581, hops: 8113, evictions: 1183, relocations: 32"
     ", route time: 995220 us, delayed hops: 60, channel wait: 183920 us"
     ", max slot occupancy: 1"},
    {"gf2^16mult", Kind::Torus, 9, 6, 1, Routing::Maze, Placement::Random,
     15766030, "1q ops: 2304, cnots: 1581, hops: 8353, evictions: 1196, relocations: 28"
     ", route time: 1.01922e+06 us, delayed hops: 63, channel wait: 183920 us"
     ", max slot occupancy: 1"},
    {"8bitadder", Kind::Torus, 7, 7, 1, Routing::Xy, Placement::CenteredBlock,
     1688430, "1q ops: 252, cnots: 198, hops: 1021, evictions: 181, relocations: 2"
     ", route time: 128830 us, delayed hops: 23, channel wait: 26730 us"
     ", max slot occupancy: 1"},
    {"8bitadder", Kind::Torus, 7, 7, 1, Routing::Xy, Placement::Random,
     1687630, "1q ops: 252, cnots: 198, hops: 974, evictions: 185, relocations: 0"
     ", route time: 123600 us, delayed hops: 19, channel wait: 26200 us"
     ", max slot occupancy: 1"},
    {"8bitadder", Kind::Torus, 7, 7, 1, Routing::Maze, Placement::CenteredBlock,
     1690830, "1q ops: 252, cnots: 198, hops: 1046, evictions: 182, relocations: 2"
     ", route time: 131460 us, delayed hops: 24, channel wait: 26860 us"
     ", max slot occupancy: 1"},
    {"8bitadder", Kind::Torus, 7, 7, 1, Routing::Maze, Placement::Random,
     1687830, "1q ops: 252, cnots: 198, hops: 976, evictions: 184, relocations: 0"
     ", route time: 123570 us, delayed hops: 17, channel wait: 25970 us"
     ", max slot occupancy: 1"},
    {"8bitadder", Kind::Torus, 9, 6, 1, Routing::Xy, Placement::CenteredBlock,
     1692230, "1q ops: 252, cnots: 198, hops: 1040, evictions: 190, relocations: 3"
     ", route time: 132880 us, delayed hops: 34, channel wait: 28880 us"
     ", max slot occupancy: 1"},
    {"8bitadder", Kind::Torus, 9, 6, 1, Routing::Xy, Placement::Random,
     1691530, "1q ops: 252, cnots: 198, hops: 1078, evictions: 190, relocations: 3"
     ", route time: 135940 us, delayed hops: 29, channel wait: 28140 us"
     ", max slot occupancy: 1"},
    {"8bitadder", Kind::Torus, 9, 6, 1, Routing::Maze, Placement::CenteredBlock,
     1688830, "1q ops: 252, cnots: 198, hops: 1025, evictions: 190, relocations: 2"
     ", route time: 130510 us, delayed hops: 30, channel wait: 28010 us"
     ", max slot occupancy: 1"},
    {"8bitadder", Kind::Torus, 9, 6, 1, Routing::Maze, Placement::Random,
     1690930, "1q ops: 252, cnots: 198, hops: 1078, evictions: 190, relocations: 3"
     ", route time: 135040 us, delayed hops: 20, channel wait: 27240 us"
     ", max slot occupancy: 1"},
};

const leqa::circuit::Circuit& ft_circuit(const std::string& name) {
    static std::map<std::string, leqa::circuit::Circuit> circuits;
    auto it = circuits.find(name);
    if (it == circuits.end()) {
        it = circuits.emplace(name, leqa::benchgen::make_ft_benchmark(name).circuit).first;
    }
    return it->second;
}

} // namespace

TEST(QsprGolden, MapsReproduceRecordedLatencyAndStats) {
    for (const GoldenMap& run : kGolden) {
        lf::PhysicalParams params;
        params.topology = run.topology;
        params.width = run.width;
        params.height = run.height;
        params.nc = run.nc;
        lq::QsprOptions options;
        options.routing = run.routing;
        options.placement = run.placement;
        const lq::QsprResult result =
            lq::QsprMapper(params, options).map(ft_circuit(run.circuit));
        const std::string label =
            std::string(run.circuit) + " on " + lf::topology_kind_name(run.topology) + " " +
            std::to_string(run.width) + "x" + std::to_string(run.height) +
            " Nc=" + std::to_string(run.nc) + " " + lq::routing_algorithm_name(run.routing) +
            " " + lq::placement_strategy_name(run.placement);
        EXPECT_EQ(result.latency_us, run.latency_us) << label;
        EXPECT_EQ(result.stats.to_string(), run.stats) << label;
    }
}
