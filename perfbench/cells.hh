/**
 * @file
 * The benchmark's workloads as lists of campaign cells, and the cell
 * executor that makes runOne()'s public calls one by one so each can be
 * timed (and, in the traced run, wrapped in a span).
 */

#ifndef PERFBENCH_CELLS_HH
#define PERFBENCH_CELLS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/run_request.hh"
#include "sim/json.hh"
#include "spans.hh"

namespace perfbench
{

using tsoper::campaign::RunRequest;

struct WorkloadDef
{
    std::string name;
    /** The measured cells, in the order one pass runs them. */
    std::vector<RunRequest> cells;
    /** Baseline runs of the cells' benchmarks that the normalised
     *  metrics divide by, when the cells hold none; run once, in the
     *  correctness pass. */
    std::vector<RunRequest> references;
    /** Check every cell with runOne's persist-order audit on. */
    bool persistAudit = false;
};

/**
 * The workload @p name with inputs from @p seed.  @p quick shrinks every
 * scale twentyfold for the self-test.  @return false if unknown.
 */
bool makeWorkload(const std::string &name, std::uint64_t seed, bool quick,
                  WorkloadDef *out);

/** What one execution of a cell produced. */
struct CellOutcome
{
    bool ok = false;
    std::string detail;          ///< Why the cell failed.
    tsoper::Json stats;          ///< statsToJson of the measured System.
    std::uint64_t cycles = 0;    ///< Finish cycle of the (timing) run.
    std::uint64_t simCycles = 0; ///< Every cycle the cell simulated.
    std::uint64_t events = 0;    ///< Events its Systems executed.
    double setupS = 0.0;         ///< Workload generation + System ctors.
    double wallS = 0.0;          ///< The whole cell.
};

/**
 * Execute @p r through the same public calls, in the same order, as
 * campaign::runOne: generate, System ctor, run or runUntilCrash,
 * recover, statsToJson.  Spans go to @p spans when it is not null.
 */
CellOutcome runCell(const RunRequest &r, SpanLog *spans, std::int64_t cell,
                    std::int64_t parent);

} // namespace perfbench

#endif // PERFBENCH_CELLS_HH
