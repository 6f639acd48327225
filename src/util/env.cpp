#include "util/env.h"

#include <cstdio>
#include <cstdlib>

#include "util/strings.h"

namespace leqa::util {

std::optional<std::string> env_string(const std::string& name) {
    // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only; nothing calls setenv.
    const char* raw = std::getenv(name.c_str());
    if (raw == nullptr) return std::nullopt;
    return std::string(raw);
}

bool env_flag(const std::string& name) {
    const auto value = env_string(name);
    if (!value) return false;
    const std::string lowered = to_lower(trim(*value));
    return lowered == "1" || lowered == "true" || lowered == "yes" || lowered == "on";
}

long long env_int(const std::string& name, long long fallback) {
    const auto value = env_string(name);
    if (!value) return fallback;
    const auto parsed = parse_int(*value);
    if (!parsed) {
        std::fprintf(stderr, "[leqa WARN ] ignoring malformed integer in $%s='%s'\n",
                     name.c_str(), value->c_str());
        return fallback;
    }
    return *parsed;
}

} // namespace leqa::util
