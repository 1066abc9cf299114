/**
 * @file
 * One simulation run as data: a RunRequest names everything a single
 * `tsoper_sim` invocation would configure (engine, workload, scale,
 * seed, knobs, optional crash injection), and runOne() executes it and
 * returns a RunResult with the outcome classification plus the full
 * statistics registry serialized to JSON.
 *
 * This is the library-level entry point factored out of
 * tools/tsoper_sim.cc so the CLI and the parallel campaign runner
 * drive the exact same code path.
 */

#ifndef TSOPER_CAMPAIGN_RUN_REQUEST_HH
#define TSOPER_CAMPAIGN_RUN_REQUEST_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/json.hh"
#include "sim/types.hh"
#include "sim/watchdog.hh"

namespace tsoper
{

class System;

namespace campaign
{

/** Everything needed to reproduce one simulation run. */
struct RunRequest
{
    /** Stable cell identifier, e.g. "tsoper/radix/x0.1/s1/c0.5". */
    std::string id;

    std::string engine = "tsoper"; ///< CLI spelling (see engineNames()).
    std::string bench = "ocean_cp";
    std::string traceFile;         ///< Drive from a trace file instead.
    double scale = 1.0;            ///< In (0, 1000].
    std::uint64_t seed = 1;
    unsigned cores = 8;
    unsigned agMaxLines = 0;       ///< 0 = engine default.
    unsigned agbSliceLines = 0;    ///< 0 = engine default.

    /** 0 = run to completion; (0, 1] = crash at that fraction of the
     *  full run (implies a prior timing run); (1, 2^64) = crash cycle. */
    double crashAt = 0.0;

    /** Record stores and audit the durable state after the run (the
     *  strict-TSO contract, or SFR for hwrp). */
    bool check = false;

    // --- Structured tracing (sim/trace.hh, docs/observability.md).
    // For fractional crashAt requests only the measured (crash) run is
    // traced, never the preliminary timing run.
    std::string traceCategories; ///< Trace-bus categories csv; "" = off.
    std::string traceOut;        ///< Perfetto trace_event JSON path.
    bool auditPersists = false;  ///< Persist-order audit after the run.
    std::string auditFault;      ///< "" or "reorder": corrupt the audit
                                 ///  log to prove the checker rejects it.
    unsigned flightRecorder = 0; ///< Flight-recorder depth (records).

    /** Simulated-cycle cap (deadlock backstop). */
    Cycle maxCycles = 4'000'000'000ull;

    /** Serialize to the campaign-report JSON cell header. */
    Json toJson() const;

    bool operator==(const RunRequest &o) const = default;
};

enum class RunStatus
{
    Ok,          ///< Completed; audit (when requested) passed.
    CheckFailed, ///< Completed but the consistency audit failed.
    Timeout,     ///< Exceeded the campaign's wall-clock budget.
    Crashed,     ///< Simulator panic/fatal or unexpected exception.
    BadRequest,  ///< Unknown engine/bench, out-of-range knob, or
                 ///  invalid workload.
    Hung,        ///< Progress watchdog proved a livelock/deadlock.
};

const char *toString(RunStatus status);

/** All statuses in reporting order (summary lines, totals). */
const std::vector<RunStatus> &allRunStatuses();

/** Outcome of one run; deterministic given the request. */
struct RunResult
{
    RunStatus status = RunStatus::BadRequest;
    std::string detail;   ///< Error / first violation, human-readable.

    Cycle cycles = 0;     ///< Finish cycle of the (timing) run.
    Cycle drainCycles = 0;
    Cycle crashCycle = 0; ///< Resolved crash cycle (crash runs only).
    std::uint64_t ops = 0;
    std::uint64_t stores = 0;

    // Recovery audit (crash runs and --check runs).
    /** RecoveryReport::summary() verbatim; empty when no recovery
     *  pass ran. */
    std::string recoverySummary;
    bool audited = false;
    std::uint64_t durableLines = 0;
    std::uint64_t durableWords = 0;
    std::uint64_t bufferRecoveredLines = 0;
    std::uint64_t requiredStores = 0;

    // Persist-order audit (--audit-persists; sim/trace_sink.hh).
    bool persistAudited = false;
    bool persistAuditOk = false;
    std::string persistAuditDetail; ///< First violation, if any.
    std::uint64_t persistCommits = 0;
    std::uint64_t persistEdges = 0;
    std::uint64_t persistGroups = 0;

    /** statsToJson() of the run's registry (null if the run never
     *  constructed a System). */
    Json stats;
};

/** Optional observation points into runOne, and its wall-clock
 *  budget.  Neither is part of the request, so neither appears in a
 *  report. */
struct RunHooks
{
    /** Called with the live System after the run (and audit) finished,
     *  before it is torn down — the CLI uses this to dump stats. */
    std::function<void(System &)> onFinished;

    /** Every simulation phase stops at its next watchdog chunk
     *  boundary once the wall clock passes this point, and the run
     *  comes back RunStatus::Timeout. */
    Deadline deadline = noDeadline;
};

/**
 * Resolve @p r into a validated SystemConfig.  Returns false (with a
 * message in @p err) for a scale or crash point outside the ranges
 * documented on RunRequest, an unknown engine name or a knob outside
 * SystemConfig::check's ranges; benchmark resolution happens in runOne
 * since trace-driven requests have no profile.
 */
bool resolveConfig(const RunRequest &r, SystemConfig *cfg,
                   std::string *err);

/**
 * Execute @p r to completion and classify the outcome.  Never throws:
 * simulator panics and I/O failures come back as RunStatus::Crashed /
 * BadRequest, a passed hooks.deadline as Timeout, with the message in
 * RunResult::detail.  A request that resolveConfig or
 * trace::TraceOptions::check rejects is a BadRequest before anything
 * is built.
 */
RunResult runOne(const RunRequest &r, const RunHooks &hooks = {});

} // namespace campaign
} // namespace tsoper

#endif // TSOPER_CAMPAIGN_RUN_REQUEST_HH
