/// \file diagnostics.h
/// \brief Parse errors with source locations.
#pragma once

#include <string>
#include <string_view>

#include "util/error.h"

namespace leqa::parser {

/// Location within a netlist source (1-based line).
struct SourceLoc {
    std::string file = "<string>";
    std::size_t line = 0;

    [[nodiscard]] std::string to_string() const;
};

/// Error raised by the netlist parsers; message carries "<file>:<line>".
/// Derives util::ParseError so the service boundary maps it to
/// StatusCode::ParseError rather than the generic InvalidArgument.
class ParseError : public util::ParseError {
public:
    ParseError(const SourceLoc& loc, const std::string& message);

    [[nodiscard]] const SourceLoc& location() const { return loc_; }

private:
    SourceLoc loc_;
};

/// \p text as a diagnostic quotes it: the first 64 bytes, then "..." if
/// there were more, so a hostile token cannot blow up a message.
[[nodiscard]] std::string excerpt(std::string_view text);

} // namespace leqa::parser
