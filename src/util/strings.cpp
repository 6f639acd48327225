#include "util/strings.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>

namespace leqa::util {

std::string to_lower(std::string_view text) {
    std::string out(text);
    for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

std::vector<std::string> split(std::string_view text, char sep) {
    std::vector<std::string> parts;
    std::size_t begin = 0;
    for (std::size_t i = 0; i <= text.size(); ++i) {
        if (i == text.size() || text[i] == sep) {
            parts.emplace_back(text.substr(begin, i - begin));
            begin = i + 1;
        }
    }
    return parts;
}

bool starts_with(std::string_view text, std::string_view prefix) {
    return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
    return text.size() >= suffix.size() && text.substr(text.size() - suffix.size()) == suffix;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0) out += sep;
        out += parts[i];
    }
    return out;
}

std::string trim(std::string_view text) { return std::string(trim_view(text)); }

std::optional<long long> parse_int(std::string_view text) {
    const std::string_view trimmed = trim_view(text);
    if (trimmed.empty()) return std::nullopt;
    long long value = 0;
    const char* begin = trimmed.data();
    const char* end = begin + trimmed.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return value;
}

std::optional<double> parse_double(std::string_view text) {
    const std::string_view trimmed = trim_view(text);
    if (trimmed.empty()) return std::nullopt;
    // std::from_chars for double is available in libstdc++ 11+.
    double value = 0.0;
    const char* begin = trimmed.data();
    const char* end = begin + trimmed.size();
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr != end) return std::nullopt;
    return value;
}

std::optional<int> to_int(double value) {
    if (!(value >= std::numeric_limits<int>::min() && value <= std::numeric_limits<int>::max()) ||
        value != std::trunc(value)) {
        return std::nullopt;
    }
    return static_cast<int>(value);
}

std::string format_double(double value, int significant_digits) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*g", significant_digits, value);
    return buffer;
}

std::string format_scientific(double value, int mantissa_digits) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.*E", mantissa_digits, value);
    return buffer;
}

bool is_identifier(std::string_view text) {
    if (text.empty()) return false;
    const char first = text[0];
    if (!(std::isalpha(static_cast<unsigned char>(first)) || first == '_')) return false;
    for (char c : text) {
        if (std::isalnum(static_cast<unsigned char>(c))) continue;
        switch (c) {
            case '_': case '^': case '.': case '[': case ']': case '-': continue;
            default: return false;
        }
    }
    return true;
}

} // namespace leqa::util
