/// \file netlist_inspector.cpp
/// \brief Parse a netlist (or generate a suite benchmark), print its
///        structural statistics, and export QODG / IIG Graphviz renderings
///        from the pipeline's cached intermediates.
///
///   $ ./build/examples/netlist_inspector                 # uses bench:ham3
///   $ ./build/examples/netlist_inspector my.qasm out_dir
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <utility>

#include "parser/io.h"
#include "pipeline/pipeline.h"

namespace {

/// Graphviz DOT of a small circuit's IIG: a node per qubit, labelled with
/// its name, and an edge per interacting pair, labelled with its weight.
/// The library's Iig keeps only the per-qubit statistics, so the weights
/// are counted here.
std::string iig_dot(const leqa::circuit::Circuit& circ) {
    using leqa::circuit::Qubit;
    std::map<std::pair<Qubit, Qubit>, std::uint64_t> weight;
    for (const leqa::circuit::Gate& gate : circ.gates()) {
        const std::span<const Qubit> qubits = gate.qubits();
        for (std::size_t a = 0; a < qubits.size(); ++a) {
            for (std::size_t b = a + 1; b < qubits.size(); ++b) {
                ++weight[std::minmax(qubits[a], qubits[b])];
            }
        }
    }
    std::ostringstream out;
    out << "graph iig {\n";
    for (Qubit q = 0; q < circ.num_qubits(); ++q) {
        out << "  n" << q << " [label=\"" << circ.qubit_name(q) << "\"];\n";
    }
    for (const auto& [pair, w] : weight) {
        out << "  n" << pair.first << " -- n" << pair.second << " [label=\"" << w << "\"];\n";
    }
    out << "}\n";
    return out.str();
}

} // namespace

int main(int argc, char** argv) {
    using namespace leqa;

    const std::string spec = argc > 1 ? argv[1] : "bench:ham3";
    const pipeline::CircuitSource source = pipeline::parse_source(spec);

    // The pre-FT netlist for the structural report...
    const circuit::Circuit circ = source.kind() == pipeline::CircuitSource::Kind::Path
                                      ? parser::load_netlist(source.spec())
                                      : source.load();
    std::printf("netlist: %s\n", circ.name().empty() ? "(unnamed)" : circ.name().c_str());
    std::printf("  qubits: %zu\n  gates:  %zu (%s)\n", circ.num_qubits(), circ.size(),
                circ.counts().to_string().c_str());
    std::printf("  classical-reversible: %s, FT: %s\n",
                circ.is_classical() ? "yes" : "no", circ.is_ft() ? "yes" : "no");

    // ...and the pipeline's cached FT circuit + graphs for everything else
    // (handing over the already-parsed circuit avoids a second parse).
    pipeline::Pipeline pipe;
    const pipeline::CachedCircuitPtr entry =
        pipe.resolve(pipeline::CircuitSource::from_circuit(circ));
    if (entry->info().synthesized) {
        std::printf("after FT synthesis: %s\n", entry->synth_stats().to_string().c_str());
    }

    const qodg::Qodg& graph = entry->qodg();
    const iig::Iig& iig = entry->iig();
    std::printf("QODG: %zu nodes, %zu merged edges\n", graph.num_nodes(),
                graph.num_edges());
    std::printf("IIG:  %zu interacting pairs, total weight %llu, B = %.3f\n",
                iig.num_edges(),
                static_cast<unsigned long long>(iig.total_adjacent_weight() / 2),
                iig.average_zone_area());

    // Degree histogram of the IIG: how many interaction partners qubits have.
    std::size_t max_degree = 0;
    for (circuit::Qubit q = 0; q < iig.num_qubits(); ++q) {
        max_degree = std::max(max_degree, iig.degree(q));
    }
    std::printf("IIG degree histogram (M_i):\n");
    for (std::size_t d = 0; d <= max_degree; ++d) {
        std::size_t count = 0;
        for (circuit::Qubit q = 0; q < iig.num_qubits(); ++q) {
            if (iig.degree(q) == d) ++count;
        }
        if (count > 0) std::printf("  M=%2zu: %zu qubit(s)\n", d, count);
    }

    if (graph.num_ops() <= 200) {
        const std::string dir = argc > 2 ? argv[2] : ".";
        parser::write_file(dir + "/qodg.dot", graph.to_dot());
        parser::write_file(dir + "/iig.dot", iig_dot(entry->ft()));
        std::printf("wrote %s/qodg.dot and %s/iig.dot (render with graphviz)\n",
                    dir.c_str(), dir.c_str());
    } else {
        std::printf("(skipping DOT export: graph too large to render usefully)\n");
    }
    return 0;
}
