/// \file csr_builder.h
/// \brief Reference edge-list builder for `graph::CsrDigraph`.
///
/// The library's graph owners write their CSR arrays directly: the QODG
/// from its tape, the fabric topology from its segment list.  This builder
/// is the independent reference the graph and validator tests build their
/// graphs with: it collects (from, to) pairs and freezes them through the
/// raw-array constructor, sorting every successor list and merging
/// parallel edges.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/csr.h"

namespace leqa::graph {

/// Collects edges, then freezes them into a CsrDigraph.
class CsrBuilder {
public:
    explicit CsrBuilder(std::size_t num_nodes);

    /// Add one directed edge.  Self loops and out-of-range endpoints are
    /// rejected.
    void add_edge(NodeId from, NodeId to);

    /// Freeze: counting sort by source, then sort each successor list and
    /// drop parallel duplicates.  The graph claims a topological order
    /// exactly when every added edge goes from a lower to a higher id.
    [[nodiscard]] CsrDigraph build() const;

private:
    std::size_t num_nodes_;
    std::vector<NodeId> from_;
    std::vector<NodeId> to_;
    bool topological_ = true;
};

} // namespace leqa::graph
