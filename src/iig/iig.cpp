#include "iig/iig.h"

#include <limits>

#include "util/error.h"

namespace leqa::iig {

Iig::Iig(const circuit::Circuit& circ)
    : Iig(from_pairs(circ.num_qubits(), [&circ](const auto& visit) {
          for (const circuit::Gate& gate : circ.gates()) {
              const std::span<const circuit::Qubit> qubits = gate.qubits();
              for (std::size_t a = 0; a < qubits.size(); ++a) {
                  for (std::size_t b = a + 1; b < qubits.size(); ++b) visit(qubits[a], qubits[b]);
              }
          }
      })) {}

Iig::Iig(std::size_t num_qubits,
         std::span<const std::pair<circuit::Qubit, circuit::Qubit>> pairs)
    : Iig(from_pairs(num_qubits, [pairs](const auto& visit) {
          for (const auto& [a, b] : pairs) visit(a, b);
      })) {}

void Iig::count_partners(std::span<const std::size_t> start,
                         std::span<const circuit::Qubit> partners) {
    // met[j] == i once bucket i has met partner j.  A lower endpoint is
    // below Q - 1, so no bucket that holds a partner matches the initial
    // value.
    std::vector<circuit::Qubit> met(num_qubits(), std::numeric_limits<circuit::Qubit>::max());
    for (circuit::Qubit i = 0; i < num_qubits(); ++i) {
        std::uint32_t distinct = 0;
        for (std::size_t k = start[i]; k < start[i + 1]; ++k) {
            const circuit::Qubit j = partners[k];
            if (met[j] == i) continue;
            met[j] = i;
            ++degree_[j];
            ++distinct;
        }
        degree_[i] += distinct;
        num_edges_ += distinct;
    }
}

std::size_t Iig::degree(circuit::Qubit q) const {
    LEQA_REQUIRE(q < num_qubits(), "qubit index out of range");
    return degree_[q];
}

std::uint64_t Iig::adjacent_weight(circuit::Qubit q) const {
    LEQA_REQUIRE(q < num_qubits(), "qubit index out of range");
    return adjacent_weight_[q];
}

double Iig::zone_area(circuit::Qubit q) const {
    // Eq. 6: B_i = sqrt(M_i + 1) * sqrt(M_i + 1) = M_i + 1.
    return static_cast<double>(degree(q)) + 1.0;
}

double Iig::average_zone_area() const {
    // Eq. 7: B = sum_i W_i B_i / sum_i W_i.
    double numerator = 0.0;
    double denominator = 0.0;
    for (circuit::Qubit q = 0; q < num_qubits(); ++q) {
        const auto w = static_cast<double>(adjacent_weight_[q]);
        numerator += w * zone_area(q);
        denominator += w;
    }
    if (denominator == 0.0) return 1.0; // no interactions: single-ULB zones
    return numerator / denominator;
}

std::uint64_t Iig::total_adjacent_weight() const {
    std::uint64_t total = 0;
    for (const std::uint64_t w : adjacent_weight_) total += w;
    return total;
}

} // namespace leqa::iig
