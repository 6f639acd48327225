#include "graph/csr_builder.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "util/error.h"

namespace leqa::graph {

CsrBuilder::CsrBuilder(std::size_t num_nodes) : num_nodes_(num_nodes) {}

void CsrBuilder::add_edge(NodeId from, NodeId to) {
    LEQA_REQUIRE(from < num_nodes_ && to < num_nodes_, "edge endpoint out of range");
    LEQA_REQUIRE(from != to, "self loops are not representable");
    if (from > to) topological_ = false;
    from_.push_back(from);
    to_.push_back(to);
}

CsrDigraph CsrBuilder::build() const {
    // Counting sort by source: count, prefix-sum, scatter.
    std::vector<std::uint32_t> offsets(num_nodes_ + 1, 0);
    for (const NodeId u : from_) ++offsets[u + 1];
    for (std::size_t u = 0; u < num_nodes_; ++u) offsets[u + 1] += offsets[u];
    std::vector<NodeId> targets(to_.size());
    std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (std::size_t e = 0; e < from_.size(); ++e) targets[cursor[from_[e]]++] = to_[e];

    // Sort each successor list and drop parallel duplicates, compacting the
    // arrays in place.
    std::uint32_t write = 0;
    std::uint32_t row_start = 0;
    for (std::size_t u = 0; u < num_nodes_; ++u) {
        const std::uint32_t row_end = offsets[u + 1];
        auto* begin = targets.data() + row_start;
        auto* end = targets.data() + row_end;
        std::sort(begin, end);
        end = std::unique(begin, end);
        for (auto* it = begin; it != end; ++it) targets[write++] = *it;
        row_start = row_end;
        offsets[u + 1] = write;
    }
    targets.resize(write);
    return CsrDigraph(std::move(offsets), std::move(targets), topological_);
}

} // namespace leqa::graph
