#include "qodg/qodg.h"

#include <algorithm>
#include <bit>
#include <sstream>

#include "util/error.h"

namespace leqa::qodg {

Qodg::Qodg(const circuit::Circuit& circ) {
    const std::size_t n_gates = circ.size();
    const std::size_t n_nodes = n_gates + 2;

    // The predecessor CSR is written directly, one row per node in id
    // order: a gate's predecessors are the distinct last writers of its
    // operands (parallel edges -- a CNOT feeding both operands of another
    // CNOT -- merge here), sorted ascending.
    std::vector<std::uint32_t> offsets;
    std::vector<NodeId> preds;
    offsets.reserve(n_nodes + 1);
    preds.reserve(2 * n_gates + circ.num_qubits() + 1);
    offsets.push_back(0);
    offsets.push_back(0); // start has no predecessors

    // Last QODG node that touched each qubit (start initially).
    std::vector<NodeId> last(circ.num_qubits(), start());
    constexpr auto kZeroRow = static_cast<std::uint16_t>(circuit::kGateKindCount);
    delay_row_.reserve(n_nodes);
    delay_row_.push_back(kZeroRow);

    NodeId me = start();
    for (const circuit::Gate& gate : circ.gates()) {
        ++me;
        // Rows hold at most three entries for every gate but the pre-FT
        // multi-controlled ones.
        const auto row = static_cast<std::ptrdiff_t>(preds.size());
        for (const circuit::Qubit q : gate.qubits()) preds.push_back(last[q]);
        std::sort(preds.begin() + row, preds.end());
        preds.erase(std::unique(preds.begin() + row, preds.end()), preds.end());
        offsets.push_back(static_cast<std::uint32_t>(preds.size()));
        for (const circuit::Qubit q : gate.qubits()) last[q] = me;
        delay_row_.push_back(static_cast<std::uint16_t>(gate.kind));
    }

    // End depends on every qubit's last node (start for untouched qubits,
    // or start alone when the circuit has no qubits).
    if (last.empty()) last.push_back(start());
    std::sort(last.begin(), last.end());
    preds.insert(preds.end(), last.begin(), std::unique(last.begin(), last.end()));
    offsets.push_back(static_cast<std::uint32_t>(preds.size()));
    delay_row_.push_back(kZeroRow);

    rcsr_ = graph::CsrDigraph(std::move(offsets), std::move(preds), /*topological=*/false);
    csr_ = rcsr_.reversed();
    // Debug stage-boundary contract: the frozen QODG is a clean,
    // topologically ordered DAG (compiled out of Release).
    LEQA_DCHECK_OK(graph::validate_csr(csr_));
}

void Qodg::check_node(NodeId id) const {
    LEQA_REQUIRE(id < num_nodes(), "node id out of range");
}

Node Qodg::node(NodeId id) const {
    check_node(id);
    if (id == start()) return Node{NodeKind::Start, 0, circuit::GateKind::X};
    if (id == end()) return Node{NodeKind::End, 0, circuit::GateKind::X};
    return Node{NodeKind::Op, static_cast<std::size_t>(id) - 1,
                static_cast<circuit::GateKind>(delay_row_[id])};
}

NodeId Qodg::node_of_gate(std::size_t gate_index) const {
    LEQA_REQUIRE(gate_index < num_ops(), "gate index out of range");
    return static_cast<NodeId>(gate_index + 1);
}

std::vector<double> Qodg::node_delays(
    const std::function<double(circuit::GateKind)>& delay_of) const {
    std::vector<double> delays(num_nodes(), 0.0);
    for (NodeId id = 1; id < end(); ++id) {
        delays[id] = delay_of(static_cast<circuit::GateKind>(delay_row_[id]));
    }
    return delays;
}

std::vector<double> Qodg::node_delays(
    const std::array<double, circuit::kGateKindCount>& delay_by_kind) const {
    std::vector<double> delays(num_nodes(), 0.0);
    for (NodeId id = 1; id < end(); ++id) delays[id] = delay_by_kind[delay_row_[id]];
    return delays;
}

LongestPath Qodg::longest_path(const std::vector<double>& delays) const {
    LEQA_REQUIRE(delays.size() == num_nodes(),
                 "delay vector size must equal node count");
    graph::LongestPathResult result = graph::longest_path(csr_, delays, start());
    LongestPath lp;
    lp.distance = std::move(result.distance);
    lp.predecessor = std::move(result.predecessor);
    lp.length = lp.distance[end()];
    return lp;
}

std::vector<NodeId> Qodg::critical_path(const LongestPath& lp) const {
    LEQA_REQUIRE(lp.distance.size() == num_nodes(),
                 "longest-path result does not match this graph");
    return graph::extract_path(lp.distance, lp.predecessor, start(), end());
}

namespace {

/// One pull-based gather sweep with a compile-time lane count, so the lane
/// accumulators live in registers and the inner loop has a known trip
/// count the compiler unrolls and vectorizes.  Per lane this computes
/// exactly what graph::longest_path computes push-style: a node's
/// predecessors are visited in the same ascending-id order the forward
/// sweep relaxes them in, with the same reachability guard (`du >= 0`)
/// and the same strict `>` comparison, so the running max sees an
/// identical sequence of doubles and lands on identical bits.  NaN
/// candidates (a NaN delay lane) fail `>` both here and there, leaving
/// the node unreachable (-1) in that lane only.
template <std::size_t kLanes>
void gather_lanes(const graph::CsrDigraph& rcsr, std::size_t num_nodes,
                  const std::uint16_t* delay_row, const double* delay_soa,
                  double* distance) {
    for (std::size_t lane = 0; lane < kLanes; ++lane) distance[lane] = 0.0;
    for (NodeId v = 1; v < num_nodes; ++v) {
        const double* delay =
            delay_soa + static_cast<std::size_t>(delay_row[v]) * kLanes;
        double acc[kLanes];
        for (std::size_t lane = 0; lane < kLanes; ++lane) acc[lane] = -1.0;
        for (const NodeId u : rcsr.successors(v)) {
            const double* du = distance + static_cast<std::size_t>(u) * kLanes;
            for (std::size_t lane = 0; lane < kLanes; ++lane) {
                const double candidate = du[lane] + delay[lane];
                const bool better = du[lane] >= 0.0 && candidate > acc[lane];
                acc[lane] = better ? candidate : acc[lane];
            }
        }
        double* dv = distance + static_cast<std::size_t>(v) * kLanes;
        for (std::size_t lane = 0; lane < kLanes; ++lane) dv[lane] = acc[lane];
    }
}

} // namespace

void Qodg::longest_path_lanes(
    std::span<const std::array<double, circuit::kGateKindCount>> tables,
    LongestPathLanes& out) const {
    const std::size_t lanes = tables.size();
    LEQA_REQUIRE(lanes >= 1, "longest_path_lanes needs at least one delay table");
    const std::size_t n = num_nodes();

    out.lanes = lanes;
    // Every slot is written by the gather (start explicitly, the rest once
    // each in topological order), so resize without a fill.
    out.distance.resize(n * lanes);

    // Kind-major delay SoA — delay of kind k in lane l at [k * lanes + l] —
    // with one extra all-zero row that start/end nodes index (see
    // delay_row_), replacing the per-node kind branch of node_delays()
    // with a row lookup.  Kept in `out` for critical_path_lane recovery.
    out.delay_soa.assign((circuit::kGateKindCount + 1) * lanes, 0.0);
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (std::size_t k = 0; k < circuit::kGateKindCount; ++k) {
            out.delay_soa[k * lanes + lane] = tables[lane][k];
        }
    }

    switch (lanes) {
        case 8:
            gather_lanes<8>(rcsr_, n, delay_row_.data(), out.delay_soa.data(),
                            out.distance.data());
            break;
        case 4:
            gather_lanes<4>(rcsr_, n, delay_row_.data(), out.delay_soa.data(),
                            out.distance.data());
            break;
        default: {
            std::vector<double> acc(lanes);
            for (std::size_t lane = 0; lane < lanes; ++lane) {
                out.distance[lane] = 0.0;
            }
            for (NodeId v = 1; v < n; ++v) {
                const double* delay =
                    &out.delay_soa[static_cast<std::size_t>(delay_row_[v]) * lanes];
                std::fill(acc.begin(), acc.end(), -1.0);
                for (const NodeId u : rcsr_.successors(v)) {
                    const double* du =
                        &out.distance[static_cast<std::size_t>(u) * lanes];
                    for (std::size_t lane = 0; lane < lanes; ++lane) {
                        const double candidate = du[lane] + delay[lane];
                        const bool better =
                            du[lane] >= 0.0 && candidate > acc[lane];
                        acc[lane] = better ? candidate : acc[lane];
                    }
                }
                std::copy(acc.begin(), acc.end(),
                          &out.distance[static_cast<std::size_t>(v) * lanes]);
            }
            break;
        }
    }
}

std::vector<NodeId> Qodg::critical_path_lane(const LongestPathLanes& lanes,
                                             std::size_t lane) const {
    const std::size_t width = lanes.lanes;
    LEQA_REQUIRE(lanes.distance.size() == num_nodes() * width,
                 "lane-blocked result does not match this graph");
    LEQA_REQUIRE(lane < width, "lane index out of range");
    LEQA_REQUIRE(lanes.at(end(), lane) >= 0.0, "sink unreachable from source");
    std::vector<NodeId> path;
    NodeId cursor = end();
    path.push_back(cursor);
    while (cursor != start()) {
        const double target = lanes.at(cursor, lane);
        const double delay =
            lanes.delay_soa[static_cast<std::size_t>(delay_row_[cursor]) * width +
                            lane];
        NodeId next = cursor;
        for (const NodeId u : rcsr_.successors(cursor)) {
            const double du = lanes.at(u, lane);
            if (du >= 0.0 && du + delay == target) {
                next = u;
                break;
            }
        }
        LEQA_REQUIRE(next != cursor, "lane path recovery found no predecessor");
        cursor = next;
        path.push_back(cursor);
    }
    std::reverse(path.begin(), path.end());
    return path;
}

void Qodg::critical_census_lanes(const LongestPathLanes& lanes,
                                 std::span<PathCensus> out) const {
    const std::size_t width = lanes.lanes;
    LEQA_REQUIRE(lanes.distance.size() == num_nodes() * width,
                 "lane-blocked result does not match this graph");
    LEQA_REQUIRE(out.size() <= width, "more censuses requested than lanes");
    const NodeId source = start();
    const NodeId sink = end();
    for (std::size_t lane = 0; lane < out.size(); ++lane) {
        LEQA_REQUIRE(lanes.at(sink, lane) >= 0.0, "sink unreachable from source");
        out[lane] = PathCensus{};
    }

    constexpr std::size_t kRows = circuit::kGateKindCount + 1;
    const std::size_t n = num_nodes();
    const double* dist = lanes.distance.data();
    const double* delays = lanes.delay_soa.data();

    // Process at most 8 lanes per sweep so the mask array stays one byte
    // per node; the engine's block width never exceeds that anyway.
    std::vector<std::uint8_t> mark(n);
    // Census counts keyed by (lane mask, delay row): one increment per
    // visited node instead of one per (node, lane), unfolded to the lanes
    // after the sweep.  The table is 256 * kRows words — L1-resident.
    std::vector<std::uint32_t> mask_counts(kRows << 8);
    for (std::size_t base = 0; base < out.size(); base += 8) {
        const std::size_t group = std::min<std::size_t>(8, out.size() - base);
        std::fill(mark.begin(), mark.end(), 0);
        std::fill(mask_counts.begin(), mask_counts.end(), 0);
        mark[sink] = static_cast<std::uint8_t>((1u << group) - 1u);

        // Descending ids = reverse topological order: by the time v is
        // reached, every successor that could put v on its path has
        // already propagated its mask down to v.
        for (NodeId v = static_cast<NodeId>(n - 1); v != source; --v) {
            const std::uint8_t m = mark[v];
            if (m == 0) continue;
            const std::size_t row = delay_row_[v];
            ++mask_counts[(static_cast<std::size_t>(m) * kRows) + row];
            const std::span<const NodeId> preds = rcsr_.successors(v);
            if (preds.size() == 1) {
                // The only predecessor is the path predecessor in every
                // marked lane; no distance reads needed.
                mark[preds[0]] |= m;
                continue;
            }
            // All marked lanes scan the predecessors together.  Removing
            // matched lanes from `remaining` keeps first-match semantics
            // per lane; the per-predecessor compare runs branch-free over
            // the group's contiguous distance lanes.
            const double* tv = dist + static_cast<std::size_t>(v) * width;
            const double* drow = delays + row * width;
            std::uint8_t remaining = m;
            for (const NodeId u : preds) {
                const double* tu = dist + static_cast<std::size_t>(u) * width;
                std::uint8_t matched = 0;
                for (std::size_t slot = 0; slot < group; ++slot) {
                    const std::size_t lane = base + slot;
                    const bool match = tu[lane] >= 0.0 &&
                                       tu[lane] + drow[lane] == tv[lane];
                    matched |= static_cast<std::uint8_t>(
                        static_cast<unsigned>(match) << slot);
                }
                const std::uint8_t take = matched & remaining;
                mark[u] = static_cast<std::uint8_t>(mark[u] | take);
                remaining = static_cast<std::uint8_t>(remaining & ~take);
                if (remaining == 0) break;
            }
            LEQA_REQUIRE(remaining == 0,
                         "lane path recovery found no predecessor");
        }

        // Unfold the (mask, row) counts into per-lane censuses.  The zero
        // delay row (start/end nodes) is skipped, matching census()'s
        // Op-nodes-only rule.
        for (std::size_t mask = 1; mask < 256; ++mask) {
            const std::uint32_t* row_counts = &mask_counts[mask * kRows];
            for (std::size_t row = 0; row < circuit::kGateKindCount; ++row) {
                const std::uint32_t count = row_counts[row];
                if (count == 0) continue;
                for (std::uint8_t bits = static_cast<std::uint8_t>(mask);
                     bits != 0; bits &= bits - 1) {
                    PathCensus& census =
                        out[base +
                            static_cast<std::size_t>(std::countr_zero(bits))];
                    census.by_kind[row] += count;
                    census.total_ops += count;
                }
            }
        }
    }
}

PathCensus Qodg::census(const std::vector<NodeId>& path) const {
    PathCensus census;
    for (const NodeId id : path) {
        const Node op = node(id);
        if (op.kind != NodeKind::Op) continue;
        ++census.by_kind[static_cast<std::size_t>(op.gate_kind)];
        ++census.total_ops;
    }
    return census;
}

std::vector<double> Qodg::downstream_delay(const std::vector<double>& delays) const {
    LEQA_REQUIRE(delays.size() == num_nodes(),
                 "delay vector size must equal node count");
    return graph::downstream_delay(csr_, delays);
}

Qodg::SlackAnalysis Qodg::slack_analysis(const std::vector<double>& delays) const {
    const LongestPath forward = longest_path(delays);
    const std::vector<double> backward = downstream_delay(delays);
    SlackAnalysis analysis;
    analysis.critical_length = forward.length;
    analysis.slack.resize(num_nodes());
    for (NodeId u = 0; u < num_nodes(); ++u) {
        // Longest start->end path through u = (longest to u, inclusive) +
        // (longest from u, inclusive) - delay(u) counted twice.
        const double through = forward.distance[u] + backward[u] - delays[u];
        analysis.slack[u] = std::max(0.0, forward.length - through);
        if (analysis.slack[u] <= 1e-9) ++analysis.zero_slack_nodes;
    }
    return analysis;
}

std::string Qodg::to_dot(const circuit::Circuit& circ) const {
    std::ostringstream out;
    out << "digraph qodg {\n  rankdir=LR;\n";
    for (NodeId id = 0; id < num_nodes(); ++id) {
        const Node op = node(id);
        out << "  n" << id << " [label=\"";
        switch (op.kind) {
            case NodeKind::Start: out << "start"; break;
            case NodeKind::End: out << "end"; break;
            case NodeKind::Op:
                out << op.gate_index + 1 << ": "
                    << circuit::gate_name(circ.gate(op.gate_index).kind);
                break;
        }
        out << "\"";
        if (op.kind != NodeKind::Op) out << ", shape=box";
        out << "];\n";
    }
    for (NodeId u = 0; u < num_nodes(); ++u) {
        for (const NodeId v : csr_.successors(u)) {
            out << "  n" << u << " -> n" << v << ";\n";
        }
    }
    out << "}\n";
    return out.str();
}

} // namespace leqa::qodg
