#include "parser/io.h"

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "parser/qasm.h"
#include "parser/readers.h"
#include "parser/real.h"
#include "util/error.h"
#include "util/strings.h"

namespace leqa::parser {

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw util::NotFoundError("cannot open file: " + path);
    std::error_code size_error;
    const auto size = std::filesystem::file_size(path, size_error);
    if (size_error) {
        // Not a regular file (a pipe, say): its size is unknown up front.
        return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    }
    // One read straight into the result.
    std::string text(size, '\0');
    in.read(text.data(), static_cast<std::streamsize>(size));
    text.resize(static_cast<std::size_t>(in.gcount()));
    return text;
}

void write_file(const std::string& path, const std::string& text) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw util::InputError("cannot open file for writing: " + path);
    out << text;
    if (!out) throw util::InputError("failed writing file: " + path);
}

std::size_t gates_to_reserve(std::string_view text) {
    // The newlines are counted from the QASM-subset scanner's chunk masks,
    // 64 bytes a step.
    const char* p = text.data();
    const char* const end = p + text.size();
    std::size_t newlines = 0;
    for (; end - p >= 64; p += 64) {
        std::uint64_t bits = 0;
        for (int chunk = 0; chunk < 4; ++chunk) {
            bits |= std::uint64_t{detail::classify16(p + 16 * chunk).newline} << (16 * chunk);
        }
        newlines += detail::count_bits(bits);
    }
    newlines += static_cast<std::size_t>(std::count(p, end, '\n'));
    return std::min(newlines, (text.size() + 1) / 4);
}

circuit::Circuit parse_netlist(std::string_view text, const std::string& path) {
    circuit::Circuit circ;
    circ.reserve_gates(gates_to_reserve(text));
    parse_netlist_into(text, path, circ);
    return circ;
}

circuit::Circuit load_netlist(const std::string& path) {
    return parse_netlist(read_file(path), path);
}

void save_netlist(const circuit::Circuit& circ, const std::string& path) {
    if (util::ends_with(util::to_lower(path), ".real")) {
        write_file(path, write_real(circ));
    } else {
        write_file(path, write_qasm(circ));
    }
}

} // namespace leqa::parser
