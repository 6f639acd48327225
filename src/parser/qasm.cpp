#include "parser/qasm.h"

#include <array>
#include <bit>
#include <cstring>
#include <string>

#include "parser/readers.h"

namespace leqa::parser {

namespace detail {

LineChunk tail_chunk(const char* p, std::size_t left) {
    std::array<char, 17> tail; // byte 16 is line_chunk's look-ahead
    tail.fill('\n');
    if (left > 0) std::memcpy(tail.data(), p, left);
    return line_chunk(tail.data());
}

std::string_view cut_long(const char* p, const char* end, bool operand) {
    // Skip to the token, then find its end, each from the chunk the scan
    // stands in: a token that ends in its first chunk costs one load.
    LineChunk c = chunk_at(p, end);
    const char* chunk = p;
    for (;;) {
        const std::uint32_t skip = (c.space & ~c.stop) | (operand ? c.comma : 0u);
        if (const std::uint32_t past = ~skip & 0xFFFFu; past != 0) {
            p = chunk + std::countr_zero(past);
            break;
        }
        chunk += 16;
        c = chunk_at(chunk, end);
    }
    auto offset = static_cast<unsigned>(p - chunk);
    for (;;) {
        const std::uint32_t stops = c.space | c.stop | (operand ? c.comma : 0u);
        if (const std::uint32_t at = stops >> offset; at != 0) {
            const char* const stop = chunk + offset + std::countr_zero(at);
            return {p, static_cast<std::size_t>(stop - p)};
        }
        chunk += 16;
        c = chunk_at(chunk, end);
        offset = 0;
    }
}

const char* after_newline(const char* p, const char* end) {
    for (;; p += 16) {
        const LineChunk c = chunk_at(p, end);
        if (c.newline != 0) {
            const auto at = static_cast<std::size_t>(std::countr_zero(c.newline));
            return at < static_cast<std::size_t>(end - p) ? p + at + 1 : end;
        }
    }
}

} // namespace detail

circuit::Circuit parse_qasm(std::string_view text, const std::string& source_name) {
    circuit::Circuit circ;
    parse_qasm_into(text, source_name, circ);
    return circ;
}

std::string write_qasm(const circuit::Circuit& circ) {
    std::string out;
    out.reserve(64 + 16 * circ.size()); // a mnemonic and two short names per gate
    for (const std::string& comment : circ.comments()) out.append("# ").append(comment) += '\n';
    if (!circ.name().empty()) out.append(".name ").append(circ.name()) += '\n';

    // If all qubit names are the default q0..qN-1 pattern, use the compact
    // .qubits directive; otherwise declare each name.
    bool default_names = true;
    for (circuit::Qubit q = 0; default_names && q < circ.num_qubits(); ++q) {
        default_names = circ.qubit_name(q) == "q" + std::to_string(q);
    }
    if (default_names) out.append(".qubits ").append(std::to_string(circ.num_qubits())) += '\n';
    for (circuit::Qubit q = 0; !default_names && q < circ.num_qubits(); ++q) {
        out.append("qubit ").append(circ.qubit_name(q)) += '\n';
    }

    for (const circuit::Gate& g : circ.gates()) {
        out.append(circuit::gate_info(g.kind).name);
        const char* separator = " ";
        for (const circuit::Qubit q : g.qubits()) {
            out.append(separator).append(circ.qubit_name(q));
            separator = ", ";
        }
        out += '\n';
    }
    return out;
}

} // namespace leqa::parser
