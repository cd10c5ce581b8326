/**
 * @file
 * Strict parsing of numeric command-line values, shared by gpmd and
 * gpmctl: the whole value must be a number that fits the field it
 * sets, or the program exits 1 naming the flag. A prefix parse
 * (atoi) and a narrowing cast would turn "--port 70000" into port
 * 4464 and "--port abc" into an ephemeral port.
 */

#ifndef GPM_UTIL_FLAGS_HH
#define GPM_UTIL_FLAGS_HH

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <type_traits>

#include "util/logging.hh"

namespace gpm
{

/**
 * The whole of @p text as a T (decimal for integers), or nullopt
 * when nothing or not everything of it parses, or the value does
 * not fit T: out of range, or negative for an unsigned T.
 */
template <typename T>
std::optional<T>
parseNumber(const char *text)
{
    char *end = nullptr;
    errno = 0;
    if constexpr (std::is_floating_point_v<T>) {
        double v = std::strtod(text, &end);
        if (end == text || *end != '\0' || errno == ERANGE)
            return std::nullopt;
        return static_cast<T>(v);
    } else if constexpr (std::is_signed_v<T>) {
        long long v = std::strtoll(text, &end, 10);
        if (end == text || *end != '\0' || errno == ERANGE ||
            v < std::numeric_limits<T>::min() ||
            v > std::numeric_limits<T>::max())
            return std::nullopt;
        return static_cast<T>(v);
    } else {
        // strtoull accepts "-1" and negates it into a huge value.
        if (std::strchr(text, '-'))
            return std::nullopt;
        unsigned long long v = std::strtoull(text, &end, 10);
        if (end == text || *end != '\0' || errno == ERANGE ||
            v > std::numeric_limits<T>::max())
            return std::nullopt;
        return static_cast<T>(v);
    }
}

/** parseNumber<T>(@p value), or fatal() naming @p flag. */
template <typename T>
T
numericFlag(const char *flag, const char *value)
{
    if (auto v = parseNumber<T>(value))
        return *v;
    if constexpr (std::is_floating_point_v<T>)
        fatal("%s: '%s' is not a number", flag, value);
    else
        fatal("%s: '%s' is not an integer in [%lld, %llu]", flag,
              value,
              static_cast<long long>(std::numeric_limits<T>::min()),
              static_cast<unsigned long long>(
                  std::numeric_limits<T>::max()));
}

} // namespace gpm

#endif // GPM_UTIL_FLAGS_HH
