#include "parser/io.h"

#include <algorithm>
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

circuit::Circuit parse_netlist(std::string_view text, const std::string& path) {
    circuit::Circuit circ;
    // A QASM-subset or .real line holds at most one gate.
    circ.reserve_gates(static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n')));
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
