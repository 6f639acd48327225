/// \file strings.h
/// \brief Small string utilities shared by the parsers and CLI tools.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace leqa::util {

/// Transparent string hash: with std::equal_to<> it lets an unordered
/// container keyed by std::string be searched with a std::string_view,
/// without building a temporary key.
struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view text) const {
        return std::hash<std::string_view>{}(text);
    }
};

/// ASCII whitespace as the C locale defines it: space, \t, \n, \v, \f, \r.
[[nodiscard]] constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Remove leading and trailing ASCII whitespace; a view into \p text.
[[nodiscard]] constexpr std::string_view trim_view(std::string_view text) {
    std::size_t begin = 0;
    std::size_t end = text.size();
    while (begin < end && is_space(text[begin])) ++begin;
    while (end > begin && is_space(text[end - 1])) --end;
    return text.substr(begin, end - begin);
}

/// Remove leading and trailing ASCII whitespace.
[[nodiscard]] std::string trim(std::string_view text);

/// ASCII case-insensitive equality against an already lower-case \p lower.
[[nodiscard]] constexpr bool iequals(std::string_view text, std::string_view lower) {
    if (text.size() != lower.size()) return false;
    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        if ((c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c) != lower[i]) {
            return false;
        }
    }
    return true;
}

/// Lower-case ASCII copy.
[[nodiscard]] std::string to_lower(std::string_view text);

/// Split on a single character; empty fields are kept.
[[nodiscard]] std::vector<std::string> split(std::string_view text, char sep);

[[nodiscard]] bool starts_with(std::string_view text, std::string_view prefix);
[[nodiscard]] bool ends_with(std::string_view text, std::string_view suffix);

/// Join strings with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts, std::string_view sep);

/// Strict parsers: the whole string must be consumed, otherwise nullopt.
[[nodiscard]] std::optional<long long> parse_int(std::string_view text);
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

/// \p value as an int; nullopt unless it is a whole number inside int's
/// range.  The one check before narrowing a parsed number (integers in
/// int's range convert to double exactly), so nothing truncates or wraps.
[[nodiscard]] std::optional<int> to_int(double value);

/// Format a double with %.*g style precision.
[[nodiscard]] std::string format_double(double value, int significant_digits = 6);

/// Scientific notation with fixed mantissa digits, e.g. 1.617E+00.
[[nodiscard]] std::string format_scientific(double value, int mantissa_digits = 3);

/// True if \p text is a valid identifier: [A-Za-z_][A-Za-z0-9_^.\[\]-]*.
/// The permissive tail matches benchmark names such as "gf2^16mult".
[[nodiscard]] bool is_identifier(std::string_view text);

} // namespace leqa::util
