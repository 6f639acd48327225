/// \file lexer.h
/// \brief The string_view lexer of the .real and OpenQASM readers.
///
/// Both walk the file text they were handed: lines, comments and tokens
/// are views into it (the OpenQASM reader's into one reused statement
/// buffer), so a gate costs no string allocation.  (The QASM-subset reader
/// cuts its tokens in one pass per line instead; see parser/readers.h.)
/// The primitives use util::is_space, the C locale's whitespace, which
/// makes CRLF line endings and tabs ordinary whitespace; util::trim_view
/// trims.
#pragma once

#include <cstddef>
#include <string_view>

#include "util/strings.h"

namespace leqa::parser::lex {

/// Cut \p line at its first '#', the .real comment.
[[nodiscard]] constexpr std::string_view strip_comment(std::string_view line) {
    return line.substr(0, line.find('#'));
}

/// Pop the next whitespace-separated token off the front of \p rest;
/// empty once \p rest holds only whitespace.
[[nodiscard]] constexpr std::string_view next_token(std::string_view& rest) {
    std::size_t begin = 0;
    while (begin < rest.size() && util::is_space(rest[begin])) ++begin;
    std::size_t end = begin;
    while (end < rest.size() && !util::is_space(rest[end])) ++end;
    const std::string_view token = rest.substr(begin, end - begin);
    rest.remove_prefix(end);
    return token;
}

/// Number of tokens left in \p rest (next_token rules), without consuming.
[[nodiscard]] constexpr std::size_t count_tokens(std::string_view rest) {
    std::size_t count = 0;
    while (!next_token(rest).empty()) ++count;
    return count;
}

/// The lines of a text, numbered from 1.  Splits on '\n' like std::getline,
/// so a final newline does not start one more (empty) line.
class Lines {
public:
    explicit constexpr Lines(std::string_view text) : text_(text) {}

    /// Advance to the next line (without its '\n'); false at the end.
    constexpr bool next(std::string_view& line) {
        if (pos_ >= text_.size()) return false;
        const std::size_t newline = text_.find('\n', pos_);
        const std::size_t end = newline == std::string_view::npos ? text_.size() : newline;
        line = text_.substr(pos_, end - pos_);
        pos_ = end + 1;
        ++number_;
        return true;
    }

    /// 1-based number of the line next() returned last (0 before the first).
    [[nodiscard]] constexpr std::size_t number() const { return number_; }

private:
    std::string_view text_;
    std::size_t pos_ = 0;
    std::size_t number_ = 0;
};

} // namespace leqa::parser::lex
