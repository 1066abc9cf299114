/**
 * @file
 * Campaign runner: executes a list of run manifests on `jobs` threads
 * — the caller plus jobs − 1 it starts and joins — with a per-cell
 * wall-clock budget, retry with exponential backoff where another
 * attempt can change the verdict, and live progress reporting, then
 * aggregates everything into a CampaignReport.
 *
 * Two isolation modes (RunnerOptions::isolation):
 *
 *  - InProcess (default): each attempt calls runOne() on the job
 *    thread that took the cell.  The budget is cooperative: runOne
 *    gets it as a deadline (RunHooks::deadline) that the System checks
 *    at the watchdog's 2 M-event chunk boundaries, so an overrun stops
 *    at the next boundary and comes back as Timeout.  A cell that
 *    SIGSEGVs takes the campaign down with it, and a cell stuck inside
 *    one event never reaches a boundary.
 *  - Subprocess: each attempt fork/execs `tsoper_sim` with a memory
 *    rlimit and a hard SIGKILL on timeout.  A crashing or runaway
 *    cell is contained: its signal, exit code and stderr tail land in
 *    the CellReport and nothing outlives the attempt.
 *
 * Only a verdict another attempt can change is retried: Timeout (the
 * host may have been slow), and a subprocess attempt whose child died
 * by a signal (SIGSEGV, SIGKILL, or SIGABRT from an RLIMIT_AS
 * bad_alloc).  Everything else reproduces under the cell's seed — Ok,
 * CheckFailed, BadRequest, Hung, and an in-process Crashed (a panic or
 * exception) — and is final after one attempt.  Between attempts the
 * cell backs off exponentially (backoffBaseMs · 2^attempt, capped at
 * backoffMaxMs) so a machine-level hiccup — OOM pressure, a full /tmp
 * — gets time to clear.  A cell whose last attempt is still retryable
 * is *quarantined*: reported separately, excluded from the per-status
 * totals.
 *
 * When a journal is attached (RunnerOptions::journal), every finished
 * cell is durably appended before the campaign moves on; with
 * resumeFrom set, cells whose journaled request matches the manifest
 * are reused verbatim instead of re-run.  See campaign/journal.hh.
 */

#ifndef TSOPER_CAMPAIGN_RUNNER_HH
#define TSOPER_CAMPAIGN_RUNNER_HH

#include <chrono>
#include <functional>
#include <iosfwd>
#include <vector>

#include "campaign/journal.hh"
#include "campaign/report.hh"
#include "campaign/run_request.hh"
#include "campaign/subprocess.hh"

namespace tsoper::campaign
{

enum class Isolation
{
    InProcess,  ///< runOne() on the job thread (default).
    Subprocess, ///< fork/exec tsoper_sim per attempt.
};

struct RunnerOptions
{
    /** Job threads, the caller included; 0 =
     *  std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Per-attempt wall-clock budget; <= 0 disables it. */
    std::chrono::milliseconds timeout{120000};

    /** Extra attempts after a retryable outcome (see file comment). */
    unsigned retries = 1;

    /** How each attempt executes (see file comment). */
    Isolation isolation = Isolation::InProcess;

    /** Subprocess-mode knobs (binary path, rlimit, stderr cap).  The
     *  timeout above overrides SubprocessOptions::timeout so both
     *  modes share one budget. */
    SubprocessOptions subprocess;

    /** First retry delay; doubles per attempt.  0 disables backoff. */
    unsigned backoffBaseMs = 250;

    /** Backoff ceiling. */
    unsigned backoffMaxMs = 10'000;

    /** Stream for live per-cell progress lines; nullptr = silent. */
    std::ostream *progress = nullptr;

    /** Write-ahead journal to append finished cells to; nullptr =
     *  no journaling. */
    CampaignJournal *journal = nullptr;

    /** Previously journaled cells to reuse instead of re-running;
     *  nullptr = run everything. */
    const JournalIndex *resumeFrom = nullptr;

    /** Cell executor; defaults to runOne() under the budget.  Tests
     *  substitute fakes (timed-out cells, flaky cells) to exercise
     *  retry; a substitute runs without the budget.  When set it is
     *  used even in Subprocess mode.  An exception escaping it
     *  classifies the attempt as Crashed. */
    std::function<RunResult(const RunRequest &)> cellFn;
};

/**
 * Run one cell under the budget/retry/backoff policy on the calling
 * thread; the building block runCampaign's jobs call, exposed for
 * tests.
 */
CellReport runCell(const RunRequest &request, const RunnerOptions &opt);

/**
 * Execute @p cells on opt.jobs threads — the calling thread plus
 * jobs − 1 that it starts and joins before returning — each taking the
 * next cell from a shared cursor, and aggregate.  Cell order in the
 * report matches @p cells regardless of completion order.
 */
CampaignReport runCampaign(const std::string &name,
                           const std::vector<RunRequest> &cells,
                           const RunnerOptions &opt);

} // namespace tsoper::campaign

#endif // TSOPER_CAMPAIGN_RUNNER_HH
