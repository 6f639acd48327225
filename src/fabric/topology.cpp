#include "fabric/topology.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <set>

#include "util/error.h"

namespace leqa::fabric {

namespace {

/// The open grid's segments in canonical order, with room for `capacity`:
/// horizontal segment (x, y)-(x+1, y) has id y*(width-1) + x; vertical
/// segments follow with id H + y*width + x for (x, y)-(x, y+1).
[[nodiscard]] std::vector<std::pair<UlbId, UlbId>> grid_segments(int width, int height,
                                                                 std::size_t capacity) {
    std::vector<std::pair<UlbId, UlbId>> segments;
    segments.reserve(capacity);
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x + 1 < width; ++x) {
            segments.emplace_back(y * width + x, y * width + x + 1);
        }
    }
    for (int y = 0; y + 1 < height; ++y) {
        for (int x = 0; x < width; ++x) {
            segments.emplace_back(y * width + x, (y + 1) * width + x);
        }
    }
    return segments;
}

/// Along one axis of length `len`, Eq. 5's count min{x, len-x+1, s,
/// len-s+1} takes at most min(s, len-s+1) distinct values; entry n tallies
/// how many coordinates produce n (entry 0 stays empty).
[[nodiscard]] std::vector<double> axis_tally(int len, int s) {
    const int cap = std::min(s, len - s + 1);
    std::vector<double> count(static_cast<std::size_t>(cap) + 1, 0.0);
    for (int x = 1; x <= len; ++x) {
        const int n = std::min({x, len - x + 1, s, len - s + 1});
        count[static_cast<std::size_t>(n)] += 1.0;
    }
    return count;
}

} // namespace

// ------------------------------------------------------ CoverageHistogram --

CoverageHistogram CoverageHistogram::build(int a, int b, int zone_side) {
    LEQA_REQUIRE(a >= 1 && b >= 1, "fabric dimensions must be >= 1");
    LEQA_REQUIRE(zone_side >= 1 && zone_side <= std::min(a, b),
                 "zone side must be in [1, min(a, b)]");
    const int s = zone_side;
    const std::vector<double> cx = axis_tally(a, s);
    const std::vector<double> cy = axis_tally(b, s);

    // Cross the two axes on the integer product nx * ny, merging products
    // that coincide (1*4 == 2*2): at most (cap_a * cap_b) <= s^2 bins.
    const std::size_t max_product = (cx.size() - 1) * (cy.size() - 1);
    std::vector<double> product_count(max_product + 1, 0.0);
    for (std::size_t i = 1; i < cx.size(); ++i) {
        if (cx[i] == 0.0) continue;
        for (std::size_t j = 1; j < cy.size(); ++j) {
            if (cy[j] == 0.0) continue;
            product_count[i * j] += cx[i] * cy[j];
        }
    }

    const double denom =
        static_cast<double>(a - s + 1) * static_cast<double>(b - s + 1);
    CoverageHistogram histogram;
    histogram.cells_ = static_cast<double>(a) * static_cast<double>(b);
    for (std::size_t product = 1; product <= max_product; ++product) {
        if (product_count[product] == 0.0) continue;
        histogram.bins_.push_back(
            Bin{static_cast<double>(product) / denom, product_count[product]});
    }
    return histogram;
}

CoverageHistogram CoverageHistogram::from_bins(std::vector<Bin> bins, double cells) {
    LEQA_REQUIRE(cells > 0.0, "coverage histogram needs a positive cell count");
    CoverageHistogram histogram;
    histogram.bins_ = std::move(bins);
    histogram.cells_ = cells;
    return histogram;
}

// --------------------------------------------------------------- Topology --

Topology::Topology(TopologyKind kind, int width, int height)
    : kind_(kind), width_(width), height_(height) {
    LEQA_REQUIRE(width >= 1 && height >= 1, "fabric dimensions must be >= 1");
}

UlbId Topology::ulb_id(UlbCoord c) const {
    LEQA_REQUIRE(in_bounds(c), "ULB coordinate out of bounds: " + c.to_string());
    return static_cast<UlbId>(c.y) * width_ + c.x;
}

UlbCoord Topology::ulb_coord(UlbId id) const {
    LEQA_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < num_ulbs(),
                 "ULB id out of range");
    return UlbCoord{id % width_, id / width_};
}

void Topology::ensure_adjacency() const {
    std::call_once(adjacency_once_, [&] {
        segment_ends_ = build_segments();
        const std::size_t n = num_ulbs();

        // Counting sort by source ULB: count both arcs of every segment,
        // prefix-sum, then scatter (neighbor, segment id) into the rows.
        std::vector<std::uint32_t> offsets(n + 1, 0);
        for (const auto& [u, v] : segment_ends_) {
            ++offsets[static_cast<std::size_t>(u) + 1];
            ++offsets[static_cast<std::size_t>(v) + 1];
        }
        for (std::size_t u = 0; u < n; ++u) offsets[u + 1] += offsets[u];
        std::vector<std::pair<UlbId, SegmentId>> arcs(offsets[n]);
        std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
        for (std::size_t s = 0; s < segment_ends_.size(); ++s) {
            const auto [u, v] = segment_ends_[s];
            arcs[cursor[static_cast<std::size_t>(u)]++] = {v, static_cast<SegmentId>(s)};
            arcs[cursor[static_cast<std::size_t>(v)]++] = {u, static_cast<SegmentId>(s)};
        }

        // Sort each row by neighbor id and split it into the CSR targets
        // and the aligned segment ids.
        std::vector<graph::NodeId> targets(arcs.size());
        arc_segments_.resize(arcs.size());
        for (std::size_t u = 0; u < n; ++u) {
            const auto row = arcs.begin() + offsets[u];
            const auto row_end = arcs.begin() + offsets[u + 1];
            std::sort(row, row_end);
            for (auto arc = row; arc != row_end; ++arc) {
                LEQA_CHECK(arc == row || arc->first != (arc - 1)->first,
                           "duplicate segment between one ULB pair");
                const auto e = static_cast<std::size_t>(arc - arcs.begin());
                targets[e] = static_cast<graph::NodeId>(arc->first);
                arc_segments_[e] = arc->second;
            }
        }
        adjacency_ = graph::CsrDigraph(std::move(offsets), std::move(targets),
                                       /*topological=*/false);
    });
}

const graph::CsrDigraph& Topology::adjacency() const {
    ensure_adjacency();
    return adjacency_;
}

std::span<const graph::NodeId> Topology::neighbors(UlbId u) const {
    ensure_adjacency();
    LEQA_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < num_ulbs(),
                 "ULB id out of range");
    return adjacency_.successors(static_cast<graph::NodeId>(u));
}

std::span<const SegmentId> Topology::neighbor_segments(UlbId u) const {
    ensure_adjacency();
    LEQA_REQUIRE(u >= 0 && static_cast<std::size_t>(u) < num_ulbs(),
                 "ULB id out of range");
    const auto successors = adjacency_.successors(static_cast<graph::NodeId>(u));
    const std::size_t base = static_cast<std::size_t>(
        successors.data() - adjacency_.successors(0).data());
    return {arc_segments_.data() + base, successors.size()};
}

SegmentId Topology::segment_between(UlbId a, UlbId b) const {
    const auto nodes = neighbors(a);
    const auto segments = neighbor_segments(a);
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (static_cast<UlbId>(nodes[i]) == b) return segments[i];
    }
    throw util::InputError("ULBs are not adjacent: " + ulb_coord(a).to_string() +
                           " and " + ulb_coord(b).to_string());
}

bool Topology::adjacent(UlbId a, UlbId b) const {
    const auto nodes = neighbors(a);
    return std::find(nodes.begin(), nodes.end(), static_cast<graph::NodeId>(b)) !=
           nodes.end();
}

std::pair<UlbId, UlbId> Topology::segment_endpoints(SegmentId segment) const {
    ensure_adjacency();
    LEQA_REQUIRE(segment >= 0 &&
                     static_cast<std::size_t>(segment) < segment_ends_.size(),
                 "segment id out of range");
    return segment_ends_[static_cast<std::size_t>(segment)];
}

int Topology::square_zone_extent(double zone_area) const {
    LEQA_REQUIRE(zone_area >= 0.0, "zone area must be non-negative");
    const int side = static_cast<int>(std::ceil(std::sqrt(zone_area) - 1e-12));
    return std::clamp(side, 1, std::min(width_, height_));
}

// ----------------------------------------------------------- GridTopology --

GridTopology::GridTopology(int width, int height)
    : GridTopology(TopologyKind::Grid, width, height) {}

GridTopology::GridTopology(TopologyKind kind, int width, int height)
    : Topology(kind, width, height) {}

std::size_t GridTopology::num_segments() const {
    return static_cast<std::size_t>(width() - 1) * height() +
           static_cast<std::size_t>(width()) * (height() - 1);
}

std::vector<std::pair<UlbId, UlbId>> GridTopology::build_segments() const {
    return grid_segments(width(), height(), num_segments());
}

int GridTopology::distance(UlbCoord a, UlbCoord b) const {
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

std::vector<SegmentId> GridTopology::route(UlbCoord a, UlbCoord b) const {
    LEQA_REQUIRE(in_bounds(a) && in_bounds(b), "ULB coordinate out of bounds");
    // Legacy dimension-ordered XY walk with closed-form segment ids: grid
    // routes (and therefore grid QSPR mappings) stay bit-exact.
    const int horizontal_count = (width() - 1) * height();
    std::vector<SegmentId> segments;
    segments.reserve(static_cast<std::size_t>(distance(a, b)));
    UlbCoord cursor = a;
    const int step_x = b.x > a.x ? 1 : -1;
    while (cursor.x != b.x) {
        const int min_x = std::min(cursor.x, cursor.x + step_x);
        segments.push_back(static_cast<SegmentId>(cursor.y) * (width() - 1) + min_x);
        cursor.x += step_x;
    }
    const int step_y = b.y > a.y ? 1 : -1;
    while (cursor.y != b.y) {
        const int min_y = std::min(cursor.y, cursor.y + step_y);
        segments.push_back(static_cast<SegmentId>(horizontal_count) +
                           min_y * width() + cursor.x);
        cursor.y += step_y;
    }
    return segments;
}

std::vector<UlbCoord> GridTopology::ring(UlbCoord center, int r) const {
    LEQA_REQUIRE(r >= 0, "ring radius must be non-negative");
    std::vector<UlbCoord> out;
    if (r == 0) {
        if (in_bounds(center)) out.push_back(center);
        return out;
    }
    // Top and bottom rows of the ring, then the side columns.
    for (int x = center.x - r; x <= center.x + r; ++x) {
        const UlbCoord top{x, center.y - r};
        if (in_bounds(top)) out.push_back(top);
        const UlbCoord bottom{x, center.y + r};
        if (in_bounds(bottom)) out.push_back(bottom);
    }
    for (int y = center.y - r + 1; y <= center.y + r - 1; ++y) {
        const UlbCoord left{center.x - r, y};
        if (in_bounds(left)) out.push_back(left);
        const UlbCoord right{center.x + r, y};
        if (in_bounds(right)) out.push_back(right);
    }
    return out;
}

UlbCoord GridTopology::midpoint(UlbCoord a, UlbCoord b) const {
    return UlbCoord{(a.x + b.x) / 2, (a.y + b.y) / 2};
}

int GridTopology::zone_extent(double zone_area) const {
    return square_zone_extent(zone_area);
}

CoverageHistogram GridTopology::coverage_histogram(int zone_extent) const {
    return CoverageHistogram::build(width(), height(), zone_extent);
}

// ---------------------------------------------------------- TorusTopology --

TorusTopology::TorusTopology(int width, int height)
    : Topology(TopologyKind::Torus, width, height) {}

std::size_t TorusTopology::num_segments() const {
    std::size_t count = static_cast<std::size_t>(width() - 1) * height() +
                        static_cast<std::size_t>(width()) * (height() - 1);
    // Wrap channels only along dimensions >= 3: on a dimension of 2 the
    // wrap would duplicate the direct segment, and on 1 it is a self loop.
    if (width() >= 3) count += static_cast<std::size_t>(height());
    if (height() >= 3) count += static_cast<std::size_t>(width());
    return count;
}

std::vector<std::pair<UlbId, UlbId>> TorusTopology::build_segments() const {
    // Grid segments first in the grid-canonical order, wrap channels after
    // (rows, then columns), so the grid sub-numbering is stable.
    std::vector<std::pair<UlbId, UlbId>> segments =
        grid_segments(width(), height(), num_segments());
    if (width() >= 3) {
        for (int y = 0; y < height(); ++y) {
            segments.emplace_back(ulb_id({width() - 1, y}), ulb_id({0, y}));
        }
    }
    if (height() >= 3) {
        for (int x = 0; x < width(); ++x) {
            segments.emplace_back(ulb_id({x, height() - 1}), ulb_id({x, 0}));
        }
    }
    return segments;
}

int TorusTopology::distance(UlbCoord a, UlbCoord b) const {
    const int dx = std::abs(a.x - b.x);
    const int dy = std::abs(a.y - b.y);
    return std::min(dx, width() - dx) + std::min(dy, height() - dy);
}

std::vector<SegmentId> TorusTopology::route(UlbCoord a, UlbCoord b) const {
    LEQA_REQUIRE(in_bounds(a) && in_bounds(b), "ULB coordinate out of bounds");
    // The grid's dimension-ordered walk, each axis the shorter way round.
    // A hop between neighbours takes its grid segment; a hop across the
    // seam (possible only on a dimension >= 3) takes that row's or
    // column's wrap channel, numbered as build_segments() lays them out.
    const int w = width();
    const int h = height();
    const SegmentId horizontal_count = static_cast<SegmentId>(w - 1) * h;
    const SegmentId row_wraps = horizontal_count + static_cast<SegmentId>(w) * (h - 1);
    const SegmentId column_wraps = row_wraps + (w >= 3 ? h : 0);
    const int dx = wrap_delta(b.x - a.x, w);
    const int dy = wrap_delta(b.y - a.y, h);
    std::vector<SegmentId> segments;
    segments.reserve(static_cast<std::size_t>(std::abs(dx) + std::abs(dy)));
    UlbCoord cursor = a;
    const int step_x = dx > 0 ? 1 : w - 1;
    for (int hop = 0; hop < std::abs(dx); ++hop) {
        const int next = (cursor.x + step_x) % w;
        segments.push_back(std::abs(next - cursor.x) == 1
                               ? static_cast<SegmentId>(cursor.y) * (w - 1) +
                                     std::min(cursor.x, next)
                               : row_wraps + cursor.y);
        cursor.x = next;
    }
    const int step_y = dy > 0 ? 1 : h - 1;
    for (int hop = 0; hop < std::abs(dy); ++hop) {
        const int next = (cursor.y + step_y) % h;
        segments.push_back(std::abs(next - cursor.y) == 1
                               ? horizontal_count +
                                     static_cast<SegmentId>(std::min(cursor.y, next)) * w +
                                     cursor.x
                               : column_wraps + cursor.x);
        cursor.y = next;
    }
    return segments;
}

std::vector<UlbCoord> TorusTopology::ring(UlbCoord center, int r) const {
    LEQA_REQUIRE(r >= 0, "ring radius must be non-negative");
    LEQA_REQUIRE(in_bounds(center), "ULB coordinate out of bounds");
    if (r == 0) return {center};

    // Walk the grid ring's offset pattern, wrap every coordinate, and keep
    // only cells whose *torus* L-infinity distance is exactly r: cells the
    // wrap brings closer belong to an earlier ring, and cells reachable
    // from two offsets are emitted once.
    const auto wrap = [](int value, int dim) {
        value %= dim;
        return value < 0 ? value + dim : value;
    };
    const auto torus_chebyshev = [&](UlbCoord c) {
        const int dx = std::abs(c.x - center.x);
        const int dy = std::abs(c.y - center.y);
        return std::max(std::min(dx, width() - dx), std::min(dy, height() - dy));
    };
    std::vector<UlbCoord> out;
    std::set<std::pair<int, int>> seen;
    const auto emit = [&](int dx, int dy) {
        const UlbCoord c{wrap(center.x + dx, width()), wrap(center.y + dy, height())};
        if (torus_chebyshev(c) != r) return;
        if (!seen.insert({c.x, c.y}).second) return;
        out.push_back(c);
    };
    for (int dx = -r; dx <= r; ++dx) {
        emit(dx, -r);
        emit(dx, r);
    }
    for (int dy = -r + 1; dy <= r - 1; ++dy) {
        emit(-r, dy);
        emit(r, dy);
    }
    return out;
}

int TorusTopology::wrap_delta(int d, int dim) const {
    // Reduce a coordinate delta to the shortest wrap direction, preferring
    // the positive direction on ties.
    d %= dim;
    if (d > dim / 2) d -= dim;
    if (d < -(dim - 1) / 2) d += dim;
    return d;
}

UlbCoord TorusTopology::midpoint(UlbCoord a, UlbCoord b) const {
    const auto wrap = [](int value, int dim) {
        value %= dim;
        return value < 0 ? value + dim : value;
    };
    const int dx = wrap_delta(b.x - a.x, width());
    const int dy = wrap_delta(b.y - a.y, height());
    return UlbCoord{wrap(a.x + dx / 2, width()), wrap(a.y + dy / 2, height())};
}

int TorusTopology::zone_extent(double zone_area) const {
    return square_zone_extent(zone_area);
}

CoverageHistogram TorusTopology::coverage_histogram(int zone_extent) const {
    LEQA_REQUIRE(zone_extent >= 1 && zone_extent <= std::min(width(), height()),
                 "zone extent must be in [1, min(a, b)]");
    // Translation invariance: an s x s zone anchored uniformly over all
    // a*b wrapped positions covers every ULB with the same probability
    // s^2 / (a*b) -- the entire Eq. 5 table is one bin.
    const double cells = static_cast<double>(width()) * height();
    const double probability =
        static_cast<double>(zone_extent) * static_cast<double>(zone_extent) / cells;
    return CoverageHistogram::from_bins(
        {CoverageHistogram::Bin{probability, cells}}, cells);
}

// ----------------------------------------------------------- LineTopology --

LineTopology::LineTopology(int width, int height)
    : GridTopology(TopologyKind::Line, width, height) {
    LEQA_REQUIRE(height == 1, "line topology requires height = 1 (got height = " +
                                  std::to_string(height) + ")");
}

int LineTopology::zone_extent(double zone_area) const {
    LEQA_REQUIRE(zone_area >= 0.0, "zone area must be non-negative");
    // A presence zone of area B occupies a 1 x ceil(B) interval of the row.
    const int extent = static_cast<int>(std::ceil(zone_area - 1e-12));
    return std::clamp(extent, 1, width());
}

CoverageHistogram LineTopology::coverage_histogram(int zone_extent) const {
    const int a = width();
    const int s = zone_extent;
    LEQA_REQUIRE(s >= 1 && s <= a, "zone extent must be in [1, width]");
    // The 1D analogue of Eq. 5: an interval of length s anchored uniformly
    // over the a-s+1 in-bounds positions covers cell x (1-based) with
    // probability min{x, a-x+1, s, a-s+1} / (a-s+1): at most min(s, a-s+1)
    // distinct values.
    const std::vector<double> count = axis_tally(a, s);
    const double denom = static_cast<double>(a - s + 1);
    std::vector<CoverageHistogram::Bin> bins;
    for (std::size_t n = 1; n < count.size(); ++n) {
        if (count[n] == 0.0) continue;
        bins.push_back(CoverageHistogram::Bin{static_cast<double>(n) / denom, count[n]});
    }
    return CoverageHistogram::from_bins(std::move(bins), static_cast<double>(a));
}

// ----------------------------------------------------------- validation --

std::string validate_coverage(const CoverageHistogram& histogram,
                              double expected_mass) {
    double multiplicity_sum = 0.0;
    double mass = 0.0;
    for (std::size_t i = 0; i < histogram.bins().size(); ++i) {
        const CoverageHistogram::Bin& bin = histogram.bins()[i];
        if (!(bin.probability > 0.0) || bin.probability > 1.0 + 1e-12) {
            return "coverage: bin " + std::to_string(i) + " probability " +
                   std::to_string(bin.probability) + " outside (0, 1]";
        }
        if (!(bin.multiplicity > 0.0)) {
            return "coverage: bin " + std::to_string(i) + " has non-positive "
                   "multiplicity " + std::to_string(bin.multiplicity);
        }
        multiplicity_sum += bin.multiplicity;
        mass += bin.probability * bin.multiplicity;
    }
    const auto rel_mismatch = [](double actual, double expected) {
        return std::abs(actual - expected) >
               1e-6 * std::max({std::abs(expected), std::abs(actual), 1.0});
    };
    if (rel_mismatch(multiplicity_sum, histogram.cells())) {
        return "coverage: bin multiplicities sum to " +
               std::to_string(multiplicity_sum) + ", expected cells() = " +
               std::to_string(histogram.cells());
    }
    if (rel_mismatch(mass, expected_mass)) {
        return "coverage: expected covered area " + std::to_string(mass) +
               " != zone area " + std::to_string(expected_mass) +
               " (Eq. 5 mass conservation)";
    }
    return {};
}

std::string validate_topology(const Topology& topology, std::size_t max_pairs) {
    // The adjacency is a symmetric encoding of an undirected graph, so it
    // is cyclic by construction — validate structure only.
    if (std::string err = graph::validate_csr(topology.adjacency().offsets(),
                                              topology.adjacency().targets(),
                                              /*topological=*/false,
                                              /*acyclic=*/false);
        !err.empty()) {
        return "topology adjacency: " + err;
    }
    const std::size_t n = topology.num_ulbs();
    if (topology.adjacency().num_nodes() != n) {
        return "topology: adjacency covers " +
               std::to_string(topology.adjacency().num_nodes()) + " nodes for " +
               std::to_string(n) + " ULBs";
    }
    if (topology.adjacency().num_edges() != 2 * topology.num_segments()) {
        return "topology: " + std::to_string(topology.num_segments()) +
               " segments must appear as " +
               std::to_string(2 * topology.num_segments()) + " arcs, found " +
               std::to_string(topology.adjacency().num_edges());
    }

    // Segment-table closure: every segment's endpoints resolve back to it,
    // and every arc's aligned segment id connects exactly its arc.
    for (SegmentId s = 0; static_cast<std::size_t>(s) < topology.num_segments();
         ++s) {
        const auto [u, v] = topology.segment_endpoints(s);
        if (u == v) return "topology: segment " + std::to_string(s) + " is a loop";
        if (!topology.adjacent(u, v) || !topology.adjacent(v, u)) {
            return "topology: segment " + std::to_string(s) +
                   " endpoints are not mutually adjacent";
        }
        if (topology.segment_between(u, v) != s ||
            topology.segment_between(v, u) != s) {
            return "topology: segment_between does not invert "
                   "segment_endpoints for segment " + std::to_string(s);
        }
    }

    // Route closure on a deterministic pair sample: each closed-form route
    // is a connected segment walk a -> b of length distance(a, b).
    const std::size_t total_pairs = n * n;
    const std::size_t stride =
        std::max<std::size_t>(1, total_pairs / std::max<std::size_t>(1, max_pairs));
    for (std::size_t k = 0; k < total_pairs; k += stride) {
        const auto a = static_cast<UlbId>(k / n);
        const auto b = static_cast<UlbId>(k % n);
        const UlbCoord ca = topology.ulb_coord(a);
        const UlbCoord cb = topology.ulb_coord(b);
        const std::vector<SegmentId> route = topology.route(ca, cb);
        const int hops = topology.distance(ca, cb);
        if (static_cast<int>(route.size()) != hops) {
            return "topology: route " + ca.to_string() + " -> " + cb.to_string() +
                   " has " + std::to_string(route.size()) + " segments but "
                   "distance is " + std::to_string(hops);
        }
        UlbId cursor = a;
        for (const SegmentId s : route) {
            const auto [u, v] = topology.segment_endpoints(s);
            if (cursor != u && cursor != v) {
                return "topology: route " + ca.to_string() + " -> " +
                       cb.to_string() + " is not a connected segment walk";
            }
            cursor = cursor == u ? v : u;
        }
        if (cursor != b) {
            return "topology: route " + ca.to_string() + " -> " + cb.to_string() +
                   " ends at ULB " + std::to_string(cursor);
        }
    }
    return {};
}

// ---------------------------------------------------------------- factory --

std::shared_ptr<const Topology> make_topology(TopologyKind kind, int width,
                                              int height) {
    std::shared_ptr<const Topology> topology;
    switch (kind) {
        case TopologyKind::Grid:
            topology = std::make_shared<const GridTopology>(width, height);
            break;
        case TopologyKind::Torus:
            topology = std::make_shared<const TorusTopology>(width, height);
            break;
        case TopologyKind::Line:
            topology = std::make_shared<const LineTopology>(width, height);
            break;
        default:
            throw util::InputError("unknown fabric topology kind");
    }
    // Debug stage-boundary contract: every topology entering the system is
    // structurally clean (compiled out of Release).  Skipped for huge
    // fabrics: validation forces the lazy adjacency, and e.g. a 50000-wide
    // analytic sweep never needs (and cannot afford) those arrays.
    if (static_cast<std::size_t>(topology->num_ulbs()) <= 65536) {
        LEQA_DCHECK_OK(validate_topology(*topology, /*max_pairs=*/32));
    }
    return topology;
}

std::shared_ptr<const Topology> make_topology(const PhysicalParams& params) {
    return make_topology(params.topology, params.width, params.height);
}

} // namespace leqa::fabric
