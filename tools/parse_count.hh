/**
 * @file
 * Strict numeric flag parsing shared by the command-line drivers.
 *
 * A flag value must parse in full: a typo such as `--iterations=x`
 * or `--seed=6x` is a usage error (exit 2), never a silently
 * truncated value that makes a run check nothing and still pass.
 */

#ifndef GZKP_TOOLS_PARSE_COUNT_HH
#define GZKP_TOOLS_PARSE_COUNT_HH

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>

namespace gzkp::tools {

enum class Parse { Ok, Unknown, BadValue };

/**
 * Parse all of `v` as an unsigned integer (decimal, 0x hex or
 * 0-prefixed octal) into `out`. BadValue on an empty, signed, partial
 * or out-of-range value, or on 0 when `positive`.
 */
template <typename T>
Parse
parseCount(const char *v, bool positive, T &out)
{
    if (!std::isdigit(static_cast<unsigned char>(*v)))
        return Parse::BadValue;
    char *end = nullptr;
    errno = 0;
    unsigned long long n = std::strtoull(v, &end, 0);
    if (errno != 0 || *end != '\0' || (positive && n == 0) ||
        n > static_cast<unsigned long long>(
                std::numeric_limits<T>::max()))
        return Parse::BadValue;
    out = T(n);
    return Parse::Ok;
}

} // namespace gzkp::tools

#endif // GZKP_TOOLS_PARSE_COUNT_HH
