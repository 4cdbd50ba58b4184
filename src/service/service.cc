#include "service/artifact_cache.hh"
#include "service/fair_queue.hh"

#include <cctype>
#include <cstdlib>
#include <string>

namespace gzkp::service {

std::uint64_t
parseCacheBytesSpec(const char *spec)
{
    if (spec == nullptr || *spec == '\0')
        return 0;
    if (!std::isdigit(static_cast<unsigned char>(*spec)))
        return 0; // strtoull would silently accept "-1"
    char *end = nullptr;
    unsigned long long v = std::strtoull(spec, &end, 10);
    if (end == spec || v == 0)
        return 0;
    std::uint64_t mult = 1;
    if (*end != '\0') {
        switch (std::tolower(static_cast<unsigned char>(*end))) {
        case 'k': mult = 1ull << 10; break;
        case 'm': mult = 1ull << 20; break;
        case 'g': mult = 1ull << 30; break;
        default: return 0;
        }
        if (end[1] != '\0')
            return 0;
    }
    if (v > ~std::uint64_t(0) / mult)
        return 0; // overflow
    return std::uint64_t(v) * mult;
}

StatusOr<std::map<std::uint64_t, std::uint64_t>>
parseTenantWeightsSpec(const char *spec)
{
    std::map<std::uint64_t, std::uint64_t> out;
    if (spec == nullptr || *spec == '\0')
        return out;
    const char *p = spec;
    while (*p != '\0') {
        char *end = nullptr;
        if (!std::isdigit(static_cast<unsigned char>(*p)))
            return invalidArgumentError(
                std::string("tenant weights: expected tenant id at \"") +
                p + "\"");
        unsigned long long tenant = std::strtoull(p, &end, 10);
        if (*end != ':' && *end != '=')
            return invalidArgumentError(
                std::string("tenant weights: expected ':' after tenant "
                            "in \"") +
                spec + "\"");
        p = end + 1;
        if (!std::isdigit(static_cast<unsigned char>(*p)))
            return invalidArgumentError(
                std::string("tenant weights: expected weight at \"") + p +
                "\"");
        unsigned long long weight = std::strtoull(p, &end, 10);
        p = end;
        if (weight == 0)
            weight = 1;
        if (weight > 1000000ull)
            weight = 1000000ull;
        out[tenant] = weight;
        if (*p == ',') {
            ++p;
            if (*p == '\0')
                return invalidArgumentError(
                    std::string("tenant weights: trailing comma in \"") +
                    spec + "\"");
        } else if (*p != '\0') {
            return invalidArgumentError(
                std::string("tenant weights: unexpected character at \"") +
                p + "\"");
        }
    }
    return out;
}

} // namespace gzkp::service
