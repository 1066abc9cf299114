/**
 * @file
 * Numeric option values for tsoper_sim and tsoper_campaign.  A value
 * is a whole number or a finite decimal, checked over the whole string
 * (parseUint / parseFiniteDouble), so "--cores=8x",
 * "--cores=4294967297" and "--scale=0.05x" die with a message naming
 * the flag (exit 2) instead of being read as 8, 1 and 0.05.
 */

#ifndef TSOPER_TOOLS_CLI_NUMBERS_HH
#define TSOPER_TOOLS_CLI_NUMBERS_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

namespace tsoper::cli
{

/** Decimal digits only (no sign, space or suffix), at most @p max. */
inline bool
parseUint(const std::string &s, std::uint64_t max, std::uint64_t *out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
    return ec == std::errc() && ptr == end && *out <= max;
}

/** A number spanning all of @p s (std::from_chars) that is finite. */
inline bool
parseFiniteDouble(const std::string &s, double *out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
    return ec == std::errc() && ptr == end && std::isfinite(*out);
}

/** @p value as an integer in [@p min, @p max], or exit 2. */
inline std::uint64_t
parseBoundedOrDie(const std::string &value, const char *flag,
                  std::uint64_t min, std::uint64_t max)
{
    std::uint64_t parsed = 0;
    if (!parseUint(value, max, &parsed) || parsed < min) {
        std::fprintf(stderr,
                     "%s expects an integer between %llu and %llu, got "
                     "'%s'\n",
                     flag, static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), value.c_str());
        std::exit(2);
    }
    return parsed;
}

/** @p value as a finite number, or exit 2. */
inline double
parseFiniteOrDie(const std::string &value, const char *flag)
{
    double parsed = 0.0;
    if (!parseFiniteDouble(value, &parsed)) {
        std::fprintf(stderr, "%s expects a finite number, got '%s'\n",
                     flag, value.c_str());
        std::exit(2);
    }
    return parsed;
}

} // namespace tsoper::cli

#endif // TSOPER_TOOLS_CLI_NUMBERS_HH
