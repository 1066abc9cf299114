/**
 * @file
 * Layer drives: each simulator layer run bare, outside a System, on
 * inputs taken from a workload's generated traces, inside a span that
 * records how many operations it performed (README.md, "Per-layer
 * metrics").
 */

#ifndef PERFBENCH_DRIVES_HH
#define PERFBENCH_DRIVES_HH

#include <cstdint>
#include <string>

#include "spans.hh"

namespace perfbench
{

/**
 * Drive the event kernel, mesh, LLC, NVM, store buffer, SLC and MESI
 * protocols and AGB with benchmark @p bench's workload at @p scale.
 * @return a checksum of the drives' results, so no drive can be
 * optimised away.
 */
std::uint64_t driveLayers(const std::string &bench, double scale,
                          std::uint64_t seed, SpanLog &spans);

} // namespace perfbench

#endif // PERFBENCH_DRIVES_HH
