/// \file topology.h
/// \brief Pluggable fabric topologies: the abstraction over ULB adjacency,
///        hop distance, and presence-zone coverage.
///
/// The paper fixes an a x b square-grid fabric; everything downstream of it
/// (XY routing, the Eq. 5 coverage table, ring searches) used to hardwire
/// that shape.  `Topology` factors the shape out into one interface with
/// three concrete instances:
///
///   - `GridTopology`:  the paper's open-boundary mesh.  Bit-compatible
///     with the pre-topology code: identical segment numbering, identical
///     XY routes, identical Eq. 5 coverage histogram.
///   - `TorusTopology`: the same mesh with wraparound channels on both
///     axes (wrap channels exist only along dimensions >= 3, so no ULB
///     pair is connected by parallel segments).  Coverage is translation
///     invariant, so the whole Eq. 5 table collapses to a single bin.
///   - `LineTopology`:  a 1D ion-trap row (height must be 1).  Presence
///     zones are 1 x ceil(B) intervals, so the coverage histogram is the
///     1D analogue of Eq. 5 with O(s) bins.
///
/// `Topology` is the one fabric type the mapper, router and placement
/// query; geometry.h holds the coordinate types and a handle to a topology.
///
/// Every query is a closed form on coordinates, so a topology holds only its
/// kind, width and height.  The paper's fabric has one channel segment
/// between each pair of neighbouring ULBs (its Figure 1), numbered by one
/// formula that `links` and `route` share: grid segments first, then a
/// torus's wrap channels.  `links(u)` answers adjacency with at most four
/// (neighbour, segment) pairs by value.  Routes are dimension-ordered walks
/// along the row, then along the column: the grid (and the line, which
/// inherits it) keeps the legacy XY walk, so grid mappings stay bit-exact,
/// and the torus takes each axis the shorter way round.  `route` and `ring`
/// fill a buffer the caller owns.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fabric/geometry.h"
#include "fabric/params.h"

namespace leqa::fabric {

/// The Eq. 5 coverage table compressed to its distinct values: bins of
/// (coverage probability, number of ULBs sharing it).  On a grid with zone
/// side s the table holds at most s^2 distinct probabilities regardless of
/// fabric area (see DESIGN.md §3); a torus collapses to one bin and a line
/// to at most s.
class CoverageHistogram {
public:
    struct Bin {
        double probability = 0.0;
        double multiplicity = 0.0; ///< number of ULBs sharing this P_xy
    };

    /// Tabulate for an open-boundary a x b grid and zone side `zone_side`
    /// (the paper's Eq. 5; same preconditions as
    /// LeqaEstimator::coverage_probability).
    [[nodiscard]] static CoverageHistogram build(int a, int b, int zone_side);

    /// Assemble from explicit bins (the non-grid topologies).
    [[nodiscard]] static CoverageHistogram from_bins(std::vector<Bin> bins,
                                                     double cells);

    [[nodiscard]] const std::vector<Bin>& bins() const { return bins_; }

    /// Total multiplicity (= fabric area in ULBs).
    [[nodiscard]] double cells() const { return cells_; }

private:
    std::vector<Bin> bins_;
    double cells_ = 0.0;
};

/// One channel segment out of a ULB: the neighbour it reaches and its id.
struct Link {
    UlbId ulb = 0;
    SegmentId segment = 0;
};

/// The links out of one ULB, in left, right, up, down order: at most four.
struct Links {
    std::array<Link, 4> link{};
    int count = 0;

    [[nodiscard]] const Link* begin() const { return link.data(); }
    [[nodiscard]] const Link* end() const { return link.data() + count; }
};

/// Abstract fabric topology: a `width x height` coordinate space of ULBs
/// plus the three things the rest of the system needs from the shape —
/// channel adjacency, hop metric/routing, and presence-zone coverage.
class Topology {
public:
    Topology(TopologyKind kind, int width, int height);
    virtual ~Topology() = default;

    Topology(const Topology&) = delete;
    Topology& operator=(const Topology&) = delete;

    [[nodiscard]] TopologyKind kind() const { return kind_; }
    [[nodiscard]] std::string name() const { return topology_kind_name(kind_); }
    [[nodiscard]] int width() const { return width_; }
    [[nodiscard]] int height() const { return height_; }
    [[nodiscard]] std::size_t num_ulbs() const {
        return static_cast<std::size_t>(width_) * static_cast<std::size_t>(height_);
    }
    /// Total channel segments.
    [[nodiscard]] virtual std::size_t num_segments() const = 0;

    // --- ULB coordinate space (row-major, shared by all topologies) --------
    [[nodiscard]] bool in_bounds(UlbCoord c) const {
        return c.x >= 0 && c.x < width_ && c.y >= 0 && c.y < height_;
    }
    [[nodiscard]] UlbId ulb_id(UlbCoord c) const;
    [[nodiscard]] UlbCoord ulb_coord(UlbId id) const;

    // --- adjacency ---------------------------------------------------------

    /// The channel segments out of `u` and the neighbours they reach.
    [[nodiscard]] virtual Links links(UlbId u) const = 0;

    /// Segment connecting two adjacent ULBs; throws InputError otherwise.
    [[nodiscard]] SegmentId segment_between(UlbId a, UlbId b) const;

    // --- hop metric and routing --------------------------------------------

    /// Hop count of a shortest route between two ULBs.
    [[nodiscard]] virtual int distance(UlbCoord a, UlbCoord b) const = 0;

    /// Replace `out` with a deterministic shortest route a -> b as a segment
    /// sequence (empty when a == b): along the row, then along the column.
    virtual void route(UlbCoord a, UlbCoord b, std::vector<SegmentId>& out) const = 0;

    /// Replace `out` with the ULBs at ring radius r around `center`, in
    /// deterministic order; r = 0 yields {center}.  Rings for r = 0..max(width,
    /// height) cover every ULB exactly once (the free-ULB search relies on
    /// this).
    virtual void ring(UlbCoord center, int r, std::vector<UlbCoord>& out) const = 0;

    /// A ULB "between" two coordinates (the CNOT meeting-point seed).
    [[nodiscard]] virtual UlbCoord midpoint(UlbCoord a, UlbCoord b) const = 0;

    // --- presence-zone coverage (Eq. 5, generalized) -----------------------

    /// Zone extent hosting an average zone area B: the side of a square
    /// zone on 2D topologies, the interval length on a line.
    [[nodiscard]] virtual int zone_extent(double zone_area) const = 0;

    /// Coverage histogram of one randomly placed zone of the given extent.
    [[nodiscard]] virtual CoverageHistogram coverage_histogram(int zone_extent) const = 0;

protected:
    /// Side of a square zone of the given area, clamped to the fabric:
    /// ceil(sqrt(B)) in [1, min(width, height)] — the shared rule of the
    /// 2D topologies (and of the golden LeqaEstimator::zone_side).
    [[nodiscard]] int square_zone_extent(double zone_area) const;

private:
    TopologyKind kind_;
    int width_;
    int height_;
};

/// The paper's open-boundary mesh.  Segment numbering, XY routes, rings and
/// the coverage histogram are bit-compatible with the pre-topology code.
class GridTopology : public Topology {
public:
    GridTopology(int width, int height);

    [[nodiscard]] std::size_t num_segments() const override;
    [[nodiscard]] Links links(UlbId u) const override;
    [[nodiscard]] int distance(UlbCoord a, UlbCoord b) const override;
    void route(UlbCoord a, UlbCoord b, std::vector<SegmentId>& out) const override;
    void ring(UlbCoord center, int r, std::vector<UlbCoord>& out) const override;
    [[nodiscard]] UlbCoord midpoint(UlbCoord a, UlbCoord b) const override;
    [[nodiscard]] int zone_extent(double zone_area) const override;
    [[nodiscard]] CoverageHistogram coverage_histogram(int zone_extent) const override;

protected:
    GridTopology(TopologyKind kind, int width, int height);
};

/// Wraparound mesh: grid segments plus one wrap channel per row/column
/// along every dimension of size >= 3.  Routes walk the row, then the
/// column, each the shorter way round (ties go the positive way).
class TorusTopology : public Topology {
public:
    TorusTopology(int width, int height);

    [[nodiscard]] std::size_t num_segments() const override;
    [[nodiscard]] Links links(UlbId u) const override;
    [[nodiscard]] int distance(UlbCoord a, UlbCoord b) const override;
    void route(UlbCoord a, UlbCoord b, std::vector<SegmentId>& out) const override;
    void ring(UlbCoord center, int r, std::vector<UlbCoord>& out) const override;
    [[nodiscard]] UlbCoord midpoint(UlbCoord a, UlbCoord b) const override;
    [[nodiscard]] int zone_extent(double zone_area) const override;
    [[nodiscard]] CoverageHistogram coverage_histogram(int zone_extent) const override;

private:
    [[nodiscard]] int wrap_delta(int d, int dim) const;
};

/// 1D ion-trap row: a grid of height 1 whose presence zones are intervals.
class LineTopology : public GridTopology {
public:
    explicit LineTopology(int width, int height = 1);

    [[nodiscard]] int zone_extent(double zone_area) const override;
    [[nodiscard]] CoverageHistogram coverage_histogram(int zone_extent) const override;
};

/// Factory keyed on the params' topology kind / geometry.
[[nodiscard]] std::shared_ptr<const Topology> make_topology(TopologyKind kind,
                                                            int width, int height);
[[nodiscard]] std::shared_ptr<const Topology> make_topology(
    const PhysicalParams& params);

// --- structural validation -------------------------------------------------

/// Coverage-mass conservation: every bin probability in (0, 1] with a
/// positive multiplicity, multiplicities summing to `cells()`, and the
/// expected covered area sum(p_i * m_i) equal to `expected_mass` (the zone
/// area: extent^2 on 2D topologies, extent on a line) within 1e-6 relative.
/// Returns the first violation, empty when clean (LEQA_DCHECK_OK shape).
[[nodiscard]] std::string validate_coverage(const CoverageHistogram& histogram,
                                            double expected_mass);

/// Structural audit of a topology instance.  Links: every link stays in
/// bounds with a segment id below `num_segments()`, every link has its
/// reverse, no ULB pair is linked twice, and every segment id sits in
/// exactly two links.  Routes: for a deterministic sample of at most
/// `max_pairs` ULB pairs, `route(a, b)` must be a walk of `distance(a, b)`
/// hops from a to b, each hop read from the cursor's links.  Returns the
/// first violation, empty when clean.
[[nodiscard]] std::string validate_topology(const Topology& topology,
                                            std::size_t max_pairs = 64);

} // namespace leqa::fabric
