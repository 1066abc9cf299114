#include "sim/watchdog.hh"

#include <sstream>

#include "sim/event_queue.hh"

namespace tsoper
{

std::string
ProgressWatchdog::check(std::uint64_t progress, Cycle now)
{
    if (!primed_) {
        primed_ = true;
        lastProgress_ = progress;
        lastCycle_ = now;
        return {};
    }

    frozenChunks_ = now == lastCycle_ ? frozenChunks_ + 1 : 0;
    stalledChunks_ = progress == lastProgress_ ? stalledChunks_ + 1 : 0;
    lastProgress_ = progress;
    lastCycle_ = now;

    std::ostringstream os;
    if (cfg_.frozenChecks && frozenChunks_ >= cfg_.frozenChecks) {
        os << "simulated time frozen at cycle " << now << " across "
           << static_cast<unsigned long long>(frozenChunks_) *
                  cfg_.checkEveryEvents
           << " events (zero-delay event livelock)";
        return os.str();
    }
    if (cfg_.stallChecks && stalledChunks_ >= cfg_.stallChecks) {
        os << "no forward progress (signature stuck at " << progress
           << ") across "
           << static_cast<unsigned long long>(stalledChunks_) *
                  cfg_.checkEveryEvents
           << " events ending at cycle " << now;
        return os.str();
    }
    return {};
}

void
ProgressWatchdog::reset()
{
    primed_ = false;
    stalledChunks_ = 0;
    frozenChunks_ = 0;
}

namespace
{

[[noreturn]] void
throwHung(const char *phase, const std::string &reason,
          const std::function<std::string()> &dumpFn)
{
    std::string msg = std::string("hung during ") + phase + ": " + reason;
    if (dumpFn) {
        const std::string dump = dumpFn();
        if (!dump.empty())
            msg += "\n" + dump;
    }
    throw HungError(msg);
}

} // namespace

void
runWatched(EventQueue &eq, const std::function<bool()> &pred,
           Cycle maxCycles, const WatchdogConfig &cfg,
           const std::function<std::uint64_t()> &progressFn,
           const std::function<std::string()> &dumpFn, const char *phase,
           Deadline deadline)
{
    ProgressWatchdog dog(cfg);
    for (;;) {
        if (std::chrono::steady_clock::now() >= deadline) {
            std::ostringstream os;
            os << "wall-clock budget exhausted during " << phase
               << " at cycle " << eq.now() << " after " << eq.executed()
               << " events";
            throw DeadlineExceeded(os.str());
        }
        const std::uint64_t before = eq.executed();
        eq.runFor(pred, maxCycles, cfg.checkEveryEvents);
        if (pred() || eq.empty() || eq.executed() == before)
            return;
        const std::string reason =
            dog.check(progressFn ? progressFn() : 0, eq.now());
        if (!reason.empty())
            throwHung(phase, reason, dumpFn);
    }
}

void
runGuarded(EventQueue &eq, const std::function<bool()> &pred,
           Cycle maxCycles, const WatchdogConfig &cfg,
           const std::function<std::uint64_t()> &progressFn,
           const std::function<std::string()> &dumpFn, const char *phase,
           Deadline deadline)
{
    runWatched(eq, pred, maxCycles, cfg, progressFn, dumpFn, phase,
               deadline);
    if (pred())
        return;
    std::ostringstream os;
    if (eq.empty())
        os << "event queue drained at cycle " << eq.now() << " with the "
           << phase << " phase incomplete (deadlock)";
    else // the next event lies beyond the cycle budget
        os << "exceeded the " << maxCycles
           << "-cycle simulated budget at cycle " << eq.now();
    throwHung(phase, os.str(), dumpFn);
}

} // namespace tsoper
