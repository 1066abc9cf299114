/**
 * @file
 * Numeric option values for tsoper_sim and tsoper_campaign.  A value
 * is a whole number or a finite decimal, checked over the whole string
 * (campaign::parseUint / parseFiniteDouble), so "--cores=8x",
 * "--cores=4294967297" and "--scale=0.05x" die with a message naming
 * the flag (exit 2) instead of being read as 8, 1 and 0.05.
 */

#ifndef TSOPER_TOOLS_CLI_NUMBERS_HH
#define TSOPER_TOOLS_CLI_NUMBERS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "campaign/spec.hh"

namespace tsoper::cli
{

/** @p value as an integer in [@p min, @p max], or exit 2. */
inline std::uint64_t
parseBoundedOrDie(const std::string &value, const char *flag,
                  std::uint64_t min, std::uint64_t max)
{
    std::uint64_t parsed = 0;
    if (!campaign::parseUint(value, max, &parsed) || parsed < min) {
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
    if (!campaign::parseFiniteDouble(value, &parsed)) {
        std::fprintf(stderr, "%s expects a finite number, got '%s'\n",
                     flag, value.c_str());
        std::exit(2);
    }
    return parsed;
}

} // namespace tsoper::cli

#endif // TSOPER_TOOLS_CLI_NUMBERS_HH
