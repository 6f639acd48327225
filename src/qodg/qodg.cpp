#include "qodg/qodg.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <sstream>
#include <type_traits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/error.h"

namespace leqa::qodg {

namespace {

constexpr auto kZeroRow = static_cast<std::uint16_t>(circuit::kGateKindCount);

Qodg::Builder feed(const circuit::Circuit& circ) {
    Qodg::Builder builder;
    builder.reserve_gates(circ.size());
    for (circuit::Qubit q = 0; q < circ.num_qubits(); ++q) builder.add_qubit();
    for (const circuit::Gate& gate : circ.gates()) builder.add_gate(gate);
    return builder;
}

} // namespace

Qodg::Builder::Builder() { delay_row_.push_back(kZeroRow); }

circuit::Qubit Qodg::Builder::add_qubit(std::string_view /*name*/) {
    last_.push_back(0); // start
    return static_cast<circuit::Qubit>(last_.size() - 1);
}

void Qodg::Builder::reserve_gates(std::size_t gates) {
    delay_row_.reserve(gates + 2);
    operands_.reserve(gates);
}

bool Qodg::Builder::is_ft() const {
    for (std::size_t k = 0; k < circuit::kGateKindCount; ++k) {
        if (gate_counts_[k] > 0 && !circuit::gate_info(static_cast<circuit::GateKind>(k)).is_ft) {
            return false;
        }
    }
    return true;
}

void Qodg::Builder::add_wide_op(std::span<const circuit::Qubit> qubits) {
    // A pre-FT gate on three or more qubits: the lane kernel rejects the
    // graph, and the CSR views and the interaction graph read the full
    // operand list from the side table.
    const auto begin = static_cast<std::uint32_t>(wide_qubits_.size());
    wide_qubits_.insert(wide_qubits_.end(), qubits.begin(), qubits.end());
    wide_ops_.push_back({static_cast<std::uint32_t>(operands_.size()), begin,
                         static_cast<std::uint32_t>(wide_qubits_.size())});
    operands_.push_back({qubits[0], qubits[0]});
}

Qodg::Qodg(Builder&& builder)
    : delay_row_(std::move(builder.delay_row_)),
      operands_(std::move(builder.operands_)),
      wide_ops_(std::move(builder.wide_ops_)),
      wide_qubits_(std::move(builder.wide_qubits_)),
      gate_counts_(builder.gate_counts_),
      num_qubits_(builder.last_.size()),
      num_two_qubit_ops_(builder.num_two_qubit_ops_) {
    // End depends on every qubit's last node (start for untouched qubits,
    // or start alone when the circuit has no qubits), each distinct node
    // once, ascending; the lane kernel reads it through one qubit per node.
    const std::vector<NodeId>& last = builder.last_;
    std::vector<std::pair<NodeId, circuit::Qubit>> ends;
    ends.reserve(last.size());
    for (circuit::Qubit q = 0; q < last.size(); ++q) ends.emplace_back(last[q], q);
    std::sort(ends.begin(), ends.end());
    ends.erase(std::unique(ends.begin(), ends.end(),
                           [](const auto& x, const auto& y) { return x.first == y.first; }),
               ends.end());
    end_qubits_.reserve(ends.size());
    for (const auto& [node, qubit] : ends) end_qubits_.push_back(qubit);
    delay_row_.push_back(kZeroRow);
}

Qodg::Qodg(const circuit::Circuit& circ) : Qodg(feed(circ)) {}

const Qodg::Views& Qodg::views() const {
    std::call_once(views_once_, [this] {
        // The predecessor CSR is written directly, one row per node in id
        // order, by replaying the last-writer chain over the tape: a
        // gate's predecessors are the distinct last nodes of its operands
        // (parallel edges -- a CNOT feeding both operands of another CNOT
        // -- merge here), ascending.
        const std::size_t n_ops = operands_.size();
        std::vector<std::uint32_t> offsets;
        std::vector<NodeId> preds;
        offsets.reserve(n_ops + 3);
        preds.reserve(2 * n_ops + num_qubits_ + 1);
        offsets.push_back(0);
        offsets.push_back(0); // start has no predecessors
        std::vector<NodeId> last(num_qubits_, start());
        auto wide = wide_ops_.begin();
        for (std::size_t i = 0; i < n_ops; ++i) {
            const auto me = static_cast<NodeId>(i + 1);
            if (wide != wide_ops_.end() && wide->op == i) {
                const std::span<const circuit::Qubit> qubits = wide_operands(*wide++);
                const auto row = static_cast<std::ptrdiff_t>(preds.size());
                for (const circuit::Qubit q : qubits) preds.push_back(last[q]);
                std::sort(preds.begin() + row, preds.end());
                preds.erase(std::unique(preds.begin() + row, preds.end()), preds.end());
                for (const circuit::Qubit q : qubits) last[q] = me;
            } else {
                // The ordered pair has last[first] <= last[second].
                const auto [first, second] = operands_[i];
                preds.push_back(last[first]);
                if (last[second] != last[first]) preds.push_back(last[second]);
                last[first] = me;
                last[second] = me;
            }
            offsets.push_back(static_cast<std::uint32_t>(preds.size()));
        }
        if (end_qubits_.empty()) preds.push_back(start());
        for (const circuit::Qubit q : end_qubits_) preds.push_back(last[q]);
        offsets.push_back(static_cast<std::uint32_t>(preds.size()));

        views_.predecessors =
            graph::CsrDigraph(std::move(offsets), std::move(preds), /*topological=*/false);
        views_.successors = views_.predecessors.reversed();
        // Debug stage-boundary contract: the QODG is a clean, topologically
        // ordered DAG (compiled out of Release).
        LEQA_DCHECK_OK(graph::validate_csr(views_.successors));
    });
    return views_;
}

iig::Iig Qodg::interaction_graph() const {
    return iig::Iig::from_pairs(num_qubits_, [this](const auto& visit) {
        for (const auto& [first, second] : operands_) {
            if (first != second) visit(first, second);
        }
        for (const WideOp& op : wide_ops_) {
            const std::span<const circuit::Qubit> qubits = wide_operands(op);
            for (std::size_t a = 0; a < qubits.size(); ++a) {
                for (std::size_t b = a + 1; b < qubits.size(); ++b) visit(qubits[a], qubits[b]);
            }
        }
    });
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
    graph::LongestPathResult result = graph::longest_path(csr(), delays, start());
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

// The lane kernels below are written over two-double vector types, which
// GCC and Clang vectorize without -march (plain lane loops with a select
// did not vectorize).
using Lanes2 = double __attribute__((vector_size(16)));
using Mask2 = std::int64_t __attribute__((vector_size(16)));

Lanes2 load2(const double* from) {
    Lanes2 lanes{};
    std::memcpy(&lanes, from, sizeof lanes);
    return lanes;
}

void store2(double* to, Lanes2 lanes) { std::memcpy(to, &lanes, sizeof lanes); }

#if defined(__SSE2__)
/// Bits 0-3 set for the true lanes of two comparison results, `low`'s two
/// lanes first: each 64-bit lane's low half carries its sign, so one
/// shuffle packs four lanes for MOVMSKPS.
unsigned lane_bits4(Mask2 low, Mask2 high) {
    const __m128 packed = _mm_shuffle_ps(std::bit_cast<__m128>(low),
                                         std::bit_cast<__m128>(high), _MM_SHUFFLE(2, 0, 2, 0));
    return static_cast<unsigned>(_mm_movemask_ps(packed));
}

/// Lane by lane, `greater ? cs : cf` for `greater = cs > cf`: exactly what
/// MAXPD computes.
Lanes2 keep_greater(Lanes2 cs, Lanes2 cf, Mask2 /*greater*/) {
    return std::bit_cast<Lanes2>(
        _mm_max_pd(std::bit_cast<__m128d>(cs), std::bit_cast<__m128d>(cf)));
}
#else
unsigned lane_bits4(Mask2 low, Mask2 high) {
    return static_cast<unsigned>(low[0] & 1) | (static_cast<unsigned>(low[1] & 1) << 1) |
           (static_cast<unsigned>(high[0] & 1) << 2) | (static_cast<unsigned>(high[1] & 1) << 3);
}

Lanes2 keep_greater(Lanes2 cs, Lanes2 cf, Mask2 greater) { return greater ? cs : cf; }
#endif

using OperandPair = std::array<circuit::Qubit, 2>;

/// One winner-bit word per two-qubit op of a width-W kernel.
template <std::size_t W>
using LaneMask = std::conditional_t<(W > 8), std::uint32_t, std::uint8_t>;

/// The forward pass at compile-time width W over per-qubit registers
/// (`regs[q * W + lane]`, all zero = start's distance on entry) and a
/// kind-major delay table (`delays[kind * W + lane]`).  A one-qubit op
/// (q, q) adds its delay to reg[q]: the two-qubit body's equal candidates
/// would give the same bits and never set a winner bit.  A two-qubit op
/// on (f, s) computes cf = reg[f] + d and cs = reg[s] + d, keeps cs iff
/// cs > cf, writes the winner to both registers and appends its winner
/// word to `via_second`.
template <std::size_t W>
void forward_lanes(std::span<const OperandPair> ops, const std::uint16_t* kinds,
                   const double* delays, double* regs, std::uint8_t* via_second) {
    if constexpr (W == 1) {
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const auto [f, s] = ops[i];
            const double delay = delays[kinds[i]];
            if (f == s) {
                regs[f] += delay;
                continue;
            }
            const double cf = regs[f] + delay;
            const double cs = regs[s] + delay;
            const bool won = cs > cf;
            const double best = won ? cs : cf;
            regs[f] = best;
            regs[s] = best;
            *via_second++ = static_cast<std::uint8_t>(won);
        }
    } else {
        using Mask = LaneMask<W>;
        static_assert(W % 4 == 0, "winner bits are read four lanes at a time");
        for (std::size_t i = 0; i < ops.size(); ++i) {
            const auto [f, s] = ops[i];
            double* rf = regs + static_cast<std::size_t>(f) * W;
            const double* delay = delays + static_cast<std::size_t>(kinds[i]) * W;
            if (f == s) {
                for (std::size_t lane = 0; lane < W; lane += 2) {
                    store2(rf + lane, load2(rf + lane) + load2(delay + lane));
                }
                continue;
            }
            // f != s, so rf and rs are distinct registers: each vector
            // pair is stored as soon as it is computed.
            double* rs = regs + static_cast<std::size_t>(s) * W;
            const auto step = [&](std::size_t lane) {
                const Lanes2 d = load2(delay + lane);
                const Lanes2 cf = load2(rf + lane) + d;
                const Lanes2 cs = load2(rs + lane) + d;
                const Mask2 second = cs > cf;
                const Lanes2 best = keep_greater(cs, cf, second);
                store2(rf + lane, best);
                store2(rs + lane, best);
                return second;
            };
            Mask won = 0;
            for (std::size_t lane = 0; lane < W; lane += 4) {
                const Mask2 low = step(lane);
                const Mask2 high = step(lane + 2);
                won = static_cast<Mask>(won | (lane_bits4(low, high) << lane));
            }
            std::memcpy(via_second, &won, sizeof(Mask));
            via_second += sizeof(Mask);
        }
    }
}

/// The reverse census pass at width W: `mask[q]` holds the lanes whose
/// path, walked back from the end, next meets qubit q's latest op.  An op
/// is on the lanes in its operands' masks.  A one-qubit op leaves its
/// mask as it is; a two-qubit op's winner bits, read from the back of
/// `via_second`, send each lane on to the operand its path entered
/// through.
///
/// About half of all ops lie on the critical path, so a branch on path
/// membership mispredicts often: one lane counts without one.  Wider
/// kernels skip off-path ops and count bit-sliced: bit `lane` of
/// `plane[kind][b]` is bit b of that lane's count, so one ripple-carry add
/// counts an op for every lane on it.
template <std::size_t W>
void census_lanes(std::span<const OperandPair> ops, const std::uint16_t* kinds,
                  std::span<const std::uint8_t> via_second,
                  std::span<const circuit::Qubit> end_qubit, std::size_t num_qubits,
                  std::span<PathCensus> out) {
    using Mask = LaneMask<W>;
    std::vector<Mask> mask(num_qubits, 0);
    for (std::size_t lane = 0; lane < out.size() && num_qubits > 0; ++lane) {
        mask[end_qubit[lane]] = static_cast<Mask>(mask[end_qubit[lane]] | (Mask{1} << lane));
    }
    const std::uint8_t* next_word = via_second.data() + via_second.size();
    std::array<std::size_t, circuit::kGateKindCount> single{}; // W == 1
    std::array<std::array<Mask, 32>, circuit::kGateKindCount> plane{}; // W > 1; counts < 2^32
    for (std::size_t i = ops.size(); i-- > 0;) {
        const auto [f, s] = ops[i];
        auto on_path = mask[f];
        if (f != s) {
            next_word -= sizeof(Mask);
            on_path = static_cast<Mask>(on_path | mask[s]);
            if (W > 1 && on_path == 0) continue;
            Mask won = 0;
            std::memcpy(&won, next_word, sizeof(Mask));
            mask[s] = static_cast<Mask>(on_path & won);
            mask[f] = static_cast<Mask>(on_path & ~won);
        } else if (W > 1 && on_path == 0) {
            continue;
        }
        if constexpr (W == 1) {
            single[kinds[i]] += on_path;
        } else {
            Mask* bit = plane[kinds[i]].data();
            for (Mask carry = on_path; carry != 0; ++bit) {
                const auto next = static_cast<Mask>(*bit & carry);
                *bit = static_cast<Mask>(*bit ^ carry);
                carry = next;
            }
        }
    }
    for (std::size_t lane = 0; lane < out.size(); ++lane) {
        PathCensus& census = out[lane];
        for (std::size_t kind = 0; kind < circuit::kGateKindCount; ++kind) {
            std::size_t count = single[kind];
            for (std::size_t b = 0; b < 32; ++b) {
                count += static_cast<std::size_t>((plane[kind][b] >> lane) & 1u) << b;
            }
            census.by_kind[kind] = count;
            census.total_ops += count;
        }
    }
}

/// Everything but the census at width W: widen the tables (lanes past
/// `tables.size()` repeat the last one), run the forward pass, and pick
/// each lane's end-node winner.
template <std::size_t W>
void longest_path_width(std::span<const std::array<double, circuit::kGateKindCount>> tables,
                        std::span<const OperandPair> ops, const std::uint16_t* kinds,
                        std::span<const circuit::Qubit> end_qubits, std::size_t num_qubits,
                        LongestPathLanes& out) {
    std::array<double, circuit::kGateKindCount * W> delays{};
    for (std::size_t lane = 0; lane < W; ++lane) {
        const auto& table = tables[std::min(lane, tables.size() - 1)];
        for (std::size_t k = 0; k < circuit::kGateKindCount; ++k) {
            delays[k * W + lane] = table[k];
        }
    }
    std::vector<double> regs(num_qubits * W, 0.0);
    forward_lanes<W>(ops, kinds, delays.data(), regs.data(), out.via_second.data());

    // The end node relaxes from its predecessors in ascending id order
    // with a strict `>`: the largest register wins, ties to the lowest id.
    // Without qubits, end's one predecessor is start: length 0.
    for (std::size_t lane = 0; lane < out.length.size() && !end_qubits.empty(); ++lane) {
        circuit::Qubit winner = end_qubits.front();
        double best = regs[static_cast<std::size_t>(winner) * W + lane];
        for (const circuit::Qubit q : end_qubits.subspan(1)) {
            const double value = regs[static_cast<std::size_t>(q) * W + lane];
            if (value > best) {
                best = value;
                winner = q;
            }
        }
        out.length[lane] = best;
        out.end_qubit[lane] = winner;
    }
}

} // namespace

void Qodg::longest_path_lanes(
    std::span<const std::array<double, circuit::kGateKindCount>> tables,
    LongestPathLanes& out) const {
    const std::size_t lanes = tables.size();
    LEQA_REQUIRE(lanes >= 1 && lanes <= 32,
                 "longest_path_lanes takes 1 to 32 delay tables");
    LEQA_REQUIRE(wide_ops_.empty(),
                 "longest_path_lanes needs an FT graph (an op touches more than two qubits)");
    for (const auto& table : tables) {
        for (const double delay : table) {
            LEQA_REQUIRE(delay >= 0.0, "lane delays must be >= 0 (got NaN or a negative)");
        }
    }

    out.width = lanes == 1 ? 1 : lanes <= 8 ? 8 : 32;
    out.length.assign(lanes, 0.0);
    out.end_qubit.assign(lanes, 0);
    out.via_second.resize(num_two_qubit_ops_ * std::max<std::size_t>(1, out.width / 8));
    const std::uint16_t* kinds = delay_row_.data() + 1; // op i is node i + 1
    switch (out.width) {
        case 1:
            longest_path_width<1>(tables, operands_, kinds, end_qubits_, num_qubits_, out);
            break;
        case 8:
            longest_path_width<8>(tables, operands_, kinds, end_qubits_, num_qubits_, out);
            break;
        default:
            longest_path_width<32>(tables, operands_, kinds, end_qubits_, num_qubits_, out);
            break;
    }
}

void Qodg::critical_census_lanes(const LongestPathLanes& lanes,
                                 std::span<PathCensus> out) const {
    const std::size_t word = std::max<std::size_t>(1, lanes.width / 8);
    const bool end_qubits_fit =
        std::all_of(lanes.end_qubit.begin(), lanes.end_qubit.end(),
                    [&](circuit::Qubit q) { return num_qubits_ == 0 || q < num_qubits_; });
    LEQA_REQUIRE(lanes.via_second.size() == num_two_qubit_ops_ * word &&
                     lanes.end_qubit.size() == lanes.length.size() && end_qubits_fit,
                 "lane-blocked result does not match this graph");
    LEQA_REQUIRE(out.size() <= lanes.length.size(), "more censuses requested than lanes");
    for (PathCensus& census : out) census = PathCensus{};
    const std::uint16_t* kinds = delay_row_.data() + 1;
    switch (lanes.width) {
        case 1:
            census_lanes<1>(operands_, kinds, lanes.via_second, lanes.end_qubit,
                            num_qubits_, out);
            break;
        case 8:
            census_lanes<8>(operands_, kinds, lanes.via_second, lanes.end_qubit,
                            num_qubits_, out);
            break;
        default:
            census_lanes<32>(operands_, kinds, lanes.via_second, lanes.end_qubit,
                             num_qubits_, out);
            break;
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
    return graph::downstream_delay(csr(), delays);
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

std::string Qodg::to_dot() const {
    std::ostringstream out;
    out << "digraph qodg {\n  rankdir=LR;\n";
    for (NodeId id = 0; id < num_nodes(); ++id) {
        const Node op = node(id);
        out << "  n" << id << " [label=\"";
        switch (op.kind) {
            case NodeKind::Start: out << "start"; break;
            case NodeKind::End: out << "end"; break;
            case NodeKind::Op:
                out << op.gate_index + 1 << ": " << circuit::gate_name(op.gate_kind);
                break;
        }
        out << "\"";
        if (op.kind != NodeKind::Op) out << ", shape=box";
        out << "];\n";
    }
    const graph::CsrDigraph& edges = csr();
    for (NodeId u = 0; u < num_nodes(); ++u) {
        for (const NodeId v : edges.successors(u)) {
            out << "  n" << u << " -> n" << v << ";\n";
        }
    }
    out << "}\n";
    return out.str();
}

} // namespace leqa::qodg
