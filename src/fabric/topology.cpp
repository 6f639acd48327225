#include "fabric/topology.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/error.h"

namespace leqa::fabric {

namespace {

/// `value` reduced into [0, dim).
[[nodiscard]] int wrap(int value, int dim) {
    value %= dim;
    return value < 0 ? value + dim : value;
}

/// The one segment numbering of every topology.  Grid segments come first:
/// (x, y)-(x+1, y) has id y*(width-1) + x, then (x, y)-(x, y+1) has id
/// (width-1)*height + y*width + x.  A torus appends one wrap channel per row
/// along a width >= 3, then one per column along a height >= 3.  So the
/// segment joining (x0, y) to its row neighbour (x1, y) is the grid segment
/// when they are one apart, else the row's wrap channel.
[[nodiscard]] SegmentId row_segment(int width, int height, int y, int x0, int x1) {
    if (std::abs(x1 - x0) == 1) {
        return static_cast<SegmentId>(y) * (width - 1) + std::min(x0, x1);
    }
    return static_cast<SegmentId>(width - 1) * height +
           static_cast<SegmentId>(width) * (height - 1) + y;
}

/// The segment joining (x, y0) to its column neighbour (x, y1), likewise.
[[nodiscard]] SegmentId column_segment(int width, int height, int x, int y0, int y1) {
    const SegmentId horizontal = static_cast<SegmentId>(width - 1) * height;
    if (std::abs(y1 - y0) == 1) {
        return horizontal + static_cast<SegmentId>(std::min(y0, y1)) * width + x;
    }
    return horizontal + static_cast<SegmentId>(width) * (height - 1) +
           (width >= 3 ? height : 0) + x;
}

/// The links of ULB `c` in left, right, up, down order.  With `wraps` (the
/// torus) a neighbour past an edge wraps round, along a dimension >= 3 only:
/// on 2 the wrap would duplicate the direct segment, and on 1 it is a loop.
[[nodiscard]] Links links_of(UlbCoord c, int width, int height, bool wraps) {
    Links out;
    const auto neighbour = [&](int value, int dim) {
        if (value >= 0 && value < dim) return value;
        return wraps && dim >= 3 ? wrap(value, dim) : -1;
    };
    for (const int step : {-1, 1}) {
        const int x = neighbour(c.x + step, width);
        if (x < 0) continue;
        out.link[static_cast<std::size_t>(out.count++)] = {
            c.y * width + x, row_segment(width, height, c.y, c.x, x)};
    }
    for (const int step : {-1, 1}) {
        const int y = neighbour(c.y + step, height);
        if (y < 0) continue;
        out.link[static_cast<std::size_t>(out.count++)] = {
            y * width + c.x, column_segment(width, height, c.x, c.y, y)};
    }
    return out;
}

/// Replace `segments` with the dimension-ordered walk from `a`: |dx| hops
/// along the row, then |dy| along the column, each the way its sign points
/// and wrapping round an edge (which a grid walk never reaches).
void walk(int width, int height, UlbCoord a, int dx, int dy,
          std::vector<SegmentId>& segments) {
    segments.clear();
    UlbCoord cursor = a;
    const int step_x = dx > 0 ? 1 : width - 1;
    for (int hop = 0; hop < std::abs(dx); ++hop) {
        const int next = (cursor.x + step_x) % width;
        segments.push_back(row_segment(width, height, cursor.y, cursor.x, next));
        cursor.x = next;
    }
    const int step_y = dy > 0 ? 1 : height - 1;
    for (int hop = 0; hop < std::abs(dy); ++hop) {
        const int next = (cursor.y + step_y) % height;
        segments.push_back(column_segment(width, height, cursor.x, cursor.y, next));
        cursor.y = next;
    }
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

SegmentId Topology::segment_between(UlbId a, UlbId b) const {
    for (const Link link : links(a)) {
        if (link.ulb == b) return link.segment;
    }
    throw util::InputError("ULBs are not adjacent: " + ulb_coord(a).to_string() +
                           " and " + ulb_coord(b).to_string());
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

Links GridTopology::links(UlbId u) const {
    return links_of(ulb_coord(u), width(), height(), /*wraps=*/false);
}

int GridTopology::distance(UlbCoord a, UlbCoord b) const {
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

void GridTopology::route(UlbCoord a, UlbCoord b, std::vector<SegmentId>& out) const {
    LEQA_REQUIRE(in_bounds(a) && in_bounds(b), "ULB coordinate out of bounds");
    // The legacy XY walk: grid routes (and so grid QSPR mappings) stay
    // bit-exact.
    walk(width(), height(), a, b.x - a.x, b.y - a.y, out);
}

void GridTopology::ring(UlbCoord center, int r, std::vector<UlbCoord>& out) const {
    LEQA_REQUIRE(r >= 0, "ring radius must be non-negative");
    out.clear();
    if (r == 0) {
        if (in_bounds(center)) out.push_back(center);
        return;
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

Links TorusTopology::links(UlbId u) const {
    return links_of(ulb_coord(u), width(), height(), /*wraps=*/true);
}

int TorusTopology::distance(UlbCoord a, UlbCoord b) const {
    const int dx = std::abs(a.x - b.x);
    const int dy = std::abs(a.y - b.y);
    return std::min(dx, width() - dx) + std::min(dy, height() - dy);
}

void TorusTopology::route(UlbCoord a, UlbCoord b, std::vector<SegmentId>& out) const {
    LEQA_REQUIRE(in_bounds(a) && in_bounds(b), "ULB coordinate out of bounds");
    // The grid's walk, each axis the shorter way round.
    walk(width(), height(), a, wrap_delta(b.x - a.x, width()),
         wrap_delta(b.y - a.y, height()), out);
}

void TorusTopology::ring(UlbCoord center, int r, std::vector<UlbCoord>& out) const {
    LEQA_REQUIRE(r >= 0, "ring radius must be non-negative");
    LEQA_REQUIRE(in_bounds(center), "ULB coordinate out of bounds");
    out.clear();
    if (r == 0) {
        out.push_back(center);
        return;
    }

    // Walk the grid ring's offset pattern, wrap every coordinate, and keep
    // only cells whose *torus* L-infinity distance is exactly r: cells the
    // wrap brings closer belong to an earlier ring.  A cell that two offsets
    // reach is kept at the first: an offset is skipped when the offset one
    // period (w or h) before it is walked too, the +r row when it is the -r
    // row (2r is a multiple of h), the +r column likewise, and a column
    // cell that lies on either row.
    const int w = width();
    const int h = height();
    const auto emit = [&](int dx, int dy) {
        const UlbCoord c{wrap(center.x + dx, w), wrap(center.y + dy, h)};
        const int ax = std::abs(c.x - center.x);
        const int ay = std::abs(c.y - center.y);
        if (std::max(std::min(ax, w - ax), std::min(ay, h - ay)) == r) out.push_back(c);
    };
    const bool bottom_row = (2 * r) % h != 0;
    const bool right_column = (2 * r) % w != 0;
    for (int dx = -r; dx <= r && dx - w < -r; ++dx) {
        emit(dx, -r);
        if (bottom_row) emit(dx, r);
    }
    for (int dy = -r + 1; dy <= r - 1 && dy - h <= -r; ++dy) {
        if (wrap(dy - r, h) == 0 || wrap(dy + r, h) == 0) continue;
        emit(-r, dy);
        if (right_column) emit(r, dy);
    }
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
    const std::size_t n = topology.num_ulbs();
    const std::size_t num_segments = topology.num_segments();
    const auto at = [&](UlbId u) { return topology.ulb_coord(u).to_string(); };

    // Links: in bounds, each with its reverse, at most one per ULB pair, and
    // every segment id in exactly two of them.
    std::vector<int> uses(num_segments, 0);
    for (UlbId u = 0; static_cast<std::size_t>(u) < n; ++u) {
        const Links links = topology.links(u);
        for (const Link* link = links.begin(); link != links.end(); ++link) {
            if (link->ulb < 0 || static_cast<std::size_t>(link->ulb) >= n ||
                link->ulb == u) {
                return "topology: ULB " + at(u) + " links to ULB id " +
                       std::to_string(link->ulb);
            }
            const auto name = [&] { return at(u) + " -> " + at(link->ulb); };
            if (link->segment < 0 || static_cast<std::size_t>(link->segment) >= num_segments) {
                return "topology: link " + name() + " has segment id " +
                       std::to_string(link->segment) + ", not below " +
                       std::to_string(num_segments);
            }
            if (std::any_of(links.begin(), link,
                            [&](const Link& other) { return other.ulb == link->ulb; })) {
                return "topology: ULB pair " + name() + " is linked twice";
            }
            const Links back = topology.links(link->ulb);
            if (std::none_of(back.begin(), back.end(), [&](const Link& reverse) {
                    return reverse.ulb == u && reverse.segment == link->segment;
                })) {
                return "topology: link " + name() + " over segment " +
                       std::to_string(link->segment) + " has no reverse (asymmetric)";
            }
            ++uses[static_cast<std::size_t>(link->segment)];
        }
    }
    for (std::size_t s = 0; s < num_segments; ++s) {
        if (uses[s] == 0) return "topology: no link uses segment " + std::to_string(s);
        if (uses[s] != 2) {
            return "topology: segment " + std::to_string(s) + " sits in " +
                   std::to_string(uses[s]) + " links, so it joins more than one ULB pair";
        }
    }

    // Route closure on a deterministic pair sample: each closed-form route
    // is a walk a -> b of distance(a, b) hops, each read from the links.
    const std::size_t total_pairs = n * n;
    const std::size_t stride =
        std::max<std::size_t>(1, total_pairs / std::max<std::size_t>(1, max_pairs));
    std::vector<SegmentId> route;
    for (std::size_t k = 0; k < total_pairs; k += stride) {
        const auto a = static_cast<UlbId>(k / n);
        const auto b = static_cast<UlbId>(k % n);
        const UlbCoord ca = topology.ulb_coord(a);
        const UlbCoord cb = topology.ulb_coord(b);
        const auto name = [&] { return ca.to_string() + " -> " + cb.to_string(); };
        topology.route(ca, cb, route);
        const int hops = topology.distance(ca, cb);
        if (static_cast<int>(route.size()) != hops) {
            return "topology: route " + name() + " has " + std::to_string(route.size()) +
                   " segments but distance is " + std::to_string(hops);
        }
        UlbId cursor = a;
        for (const SegmentId s : route) {
            const Links links = topology.links(cursor);
            const Link* hop = std::find_if(links.begin(), links.end(),
                                           [&](const Link& link) { return link.segment == s; });
            if (hop == links.end()) {
                return "topology: route " + name() + " is not a connected walk: segment " +
                       std::to_string(s) + " does not leave ULB " + at(cursor);
            }
            cursor = hop->ulb;
        }
        if (cursor != b) return "topology: route " + name() + " ends at ULB " + at(cursor);
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
    // fabrics: validation walks every ULB's links, and e.g. a 50000-wide
    // analytic sweep never asks for one.
    if (static_cast<std::size_t>(topology->num_ulbs()) <= 65536) {
        LEQA_DCHECK_OK(validate_topology(*topology, /*max_pairs=*/32));
    }
    return topology;
}

std::shared_ptr<const Topology> make_topology(const PhysicalParams& params) {
    return make_topology(params.topology, params.width, params.height);
}

} // namespace leqa::fabric
