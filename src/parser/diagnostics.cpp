#include "parser/diagnostics.h"

namespace leqa::parser {

std::string SourceLoc::to_string() const {
    return file + ":" + std::to_string(line);
}

ParseError::ParseError(const SourceLoc& loc, const std::string& message)
    : util::ParseError(loc.to_string() + ": " + message), loc_(loc) {}

std::string excerpt(std::string_view text) {
    constexpr std::size_t kMaxQuoted = 64;
    if (text.size() <= kMaxQuoted) return std::string(text);
    return std::string(text.substr(0, kMaxQuoted)) + "...";
}

} // namespace leqa::parser
