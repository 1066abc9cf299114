#include "campaign/runner.hh"

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

/** One attempt, started at @p start, on the calling thread. */
RunResult
attempt(const RunRequest &request, const RunnerOptions &opt,
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

} // namespace

CellReport
runCell(const RunRequest &request, const RunnerOptions &opt)
{
    CellReport cell;
    cell.request = request;
    for (unsigned n = 0;; ++n) {
        const Clock::time_point start = Clock::now();
        cell.result = attempt(request, opt, start);
        cell.wallMs = msSince(start);
        cell.attempts = n + 1;
        // Only a Timeout depends on host load (see runner.hh).
        if (cell.result.status != RunStatus::Timeout || n >= opt.retries)
            return cell;
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
                      cells.size(), toString(cell.result.status));
        *opt.progress << head << " " << cell.request.id << "  ("
                      << static_cast<long>(cell.wallMs) << " ms";
        if (cell.attempts > 1)
            *opt.progress << ", " << cell.attempts << " attempts";
        *opt.progress << ")\n" << std::flush;
    };

    std::atomic<std::size_t> next{0};
    const auto job = [&] {
        for (std::size_t i = next++; i < cells.size(); i = next++) {
            CellReport cell = runCell(cells[i], opt);
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
