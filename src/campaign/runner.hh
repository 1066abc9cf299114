/**
 * @file
 * Campaign runner: executes a list of run manifests on `jobs` threads
 * — the caller plus jobs − 1 it starts and joins — with a per-cell
 * wall-clock budget and live progress reporting, then aggregates
 * everything into a CampaignReport.
 *
 * Each attempt calls runOne() on the job thread that took the cell.
 * The budget is cooperative: runOne gets it as a deadline
 * (RunHooks::deadline) that the System checks at the watchdog's 2 M-
 * event chunk boundaries, so an overrun stops at the next boundary and
 * comes back as Timeout.  A cell that SIGSEGVs takes the campaign down
 * with it, and a cell stuck inside one event never reaches a boundary;
 * both are simulator bugs that reproduce under `tsoper_sim` with the
 * cell's seed.
 *
 * Only a Timeout is retried, at once, up to `retries` times: it alone
 * depends on host load.  Every other verdict — Ok, CheckFailed,
 * BadRequest, Hung, and Crashed (a panic or exception) — reproduces
 * under the cell's seed and is final after one attempt.
 */

#ifndef TSOPER_CAMPAIGN_RUNNER_HH
#define TSOPER_CAMPAIGN_RUNNER_HH

#include <chrono>
#include <functional>
#include <iosfwd>
#include <vector>

#include "campaign/report.hh"
#include "campaign/run_request.hh"

namespace tsoper::campaign
{

struct RunnerOptions
{
    /** Job threads, the caller included; 0 =
     *  std::thread::hardware_concurrency(). */
    unsigned jobs = 0;

    /** Per-attempt wall-clock budget; <= 0 disables it. */
    std::chrono::milliseconds timeout{120000};

    /** Extra attempts after a Timeout (see file comment). */
    unsigned retries = 1;

    /** Stream for live per-cell progress lines; nullptr = silent. */
    std::ostream *progress = nullptr;

    /** Cell executor; defaults to runOne() under the budget.  Tests
     *  substitute fakes (timed-out cells, flaky cells) to exercise
     *  retry; a substitute runs without the budget.  An exception
     *  escaping it classifies the attempt as Crashed. */
    std::function<RunResult(const RunRequest &)> cellFn;
};

/**
 * Run one cell under the budget/retry policy on the calling thread;
 * the building block runCampaign's jobs call, exposed for tests.
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
