#include "campaign/runner.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <mutex>
#include <ostream>
#include <thread>

namespace tsoper::campaign
{

namespace
{

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() -
                                                     start)
        .count();
}

/** One in-process attempt, started at @p start, on the calling
 *  thread. */
RunResult
attemptInProcess(const RunRequest &request, const RunnerOptions &opt,
                 Clock::time_point start)
{
    RunResult crashed;
    crashed.status = RunStatus::Crashed;
    try {
        if (opt.cellFn)
            return opt.cellFn(request);
        RunHooks hooks;
        if (opt.timeout.count() > 0)
            hooks.deadline = start + opt.timeout;
        return runOne(request, hooks);
    } catch (const std::exception &e) {
        crashed.detail = e.what();
    } catch (...) {
        crashed.detail = "unknown exception";
    }
    return crashed;
}

/** Can another attempt change this verdict?  See the file comment of
 *  runner.hh. */
bool
retryable(const RunResult &result)
{
    return result.status == RunStatus::Timeout ||
           (result.status == RunStatus::Crashed &&
            !result.signalName.empty());
}

} // namespace

CellReport
runCell(const RunRequest &request, const RunnerOptions &opt)
{
    const bool isolate =
        opt.isolation == Isolation::Subprocess && !opt.cellFn;

    CellReport cell;
    cell.request = request;
    for (unsigned attempt = 0;; ++attempt) {
        if (attempt > 0 && opt.backoffBaseMs) {
            const std::uint64_t raw =
                static_cast<std::uint64_t>(opt.backoffBaseMs)
                << (attempt - 1);
            const std::uint64_t delay = std::min<std::uint64_t>(
                raw, opt.backoffMaxMs ? opt.backoffMaxMs : raw);
            std::this_thread::sleep_for(
                std::chrono::milliseconds(delay));
        }
        const Clock::time_point start = Clock::now();
        if (isolate) {
            SubprocessOptions sub = opt.subprocess;
            sub.timeout = opt.timeout;
            SubprocessOutcome outcome = runSubprocess(request, sub);
            cell.result = std::move(outcome.result);
            cell.wallMs = outcome.wallMs;
        } else {
            cell.result = attemptInProcess(request, opt, start);
            cell.wallMs = msSince(start);
        }
        cell.attempts = attempt + 1;
        cell.attemptLog.push_back(
            {cell.result.status, cell.wallMs, cell.result.detail});
        if (!retryable(cell.result))
            return cell;
        if (attempt >= opt.retries) {
            // Still retryable after the last attempt: quarantine the
            // cell so one sick run cannot poison the sweep's totals.
            cell.quarantined = true;
            return cell;
        }
    }
}

CampaignReport
runCampaign(const std::string &name,
            const std::vector<RunRequest> &cells,
            const RunnerOptions &opt)
{
    CampaignReport report;
    report.name = name;
    report.cells.resize(cells.size());
    unsigned jobs = opt.jobs ? opt.jobs
                             : std::thread::hardware_concurrency();
    if (jobs == 0)
        jobs = 1;
    report.jobs = jobs;

    const Clock::time_point start = Clock::now();
    std::mutex progressMutex;
    std::size_t finished = 0; // under progressMutex

    const auto progressLine = [&](const CellReport &cell) {
        if (!opt.progress)
            return;
        std::lock_guard<std::mutex> lock(progressMutex);
        char head[64];
        std::snprintf(head, sizeof(head), "[%3zu/%zu] %-12s", ++finished,
                      cells.size(),
                      cell.fromJournal ? "resumed"
                                       : toString(cell.result.status));
        *opt.progress << head << " " << cell.request.id;
        if (cell.fromJournal) {
            *opt.progress << "  (journal)";
        } else {
            *opt.progress << "  ("
                          << static_cast<long>(cell.wallMs) << " ms";
            if (cell.attempts > 1)
                *opt.progress << ", " << cell.attempts << " attempts";
            if (cell.quarantined)
                *opt.progress << ", quarantined";
            *opt.progress << ")";
        }
        *opt.progress << "\n" << std::flush;
    };

    // Reuse a journaled cell only if its request is the manifest
    // request — a spec edited under the journal re-runs its stale
    // cells instead of silently reusing them.
    const auto journaled = [&](const RunRequest &r) -> const CellReport * {
        if (!opt.resumeFrom)
            return nullptr;
        const auto it = opt.resumeFrom->cells.find(r.id);
        return it != opt.resumeFrom->cells.end() && it->second.request == r
                   ? &it->second
                   : nullptr;
    };

    std::atomic<std::size_t> next{0};
    const auto job = [&] {
        for (std::size_t i = next++; i < cells.size(); i = next++) {
            CellReport cell;
            if (const CellReport *old = journaled(cells[i])) {
                cell = *old;
                cell.fromJournal = true;
            } else {
                cell = runCell(cells[i], opt);
                if (opt.journal)
                    opt.journal->append(cell);
            }
            progressLine(cell);
            report.cells[i] = std::move(cell);
        }
    };
    {
        // jthreads join on destruction, on the exception path too.
        std::vector<std::jthread> helpers;
        helpers.reserve(jobs - 1);
        for (unsigned t = 1; t < jobs; ++t)
            helpers.emplace_back(job);
        job();
    }

    report.wallMs = msSince(start);
    return report;
}

} // namespace tsoper::campaign
