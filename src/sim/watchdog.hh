/**
 * @file
 * Progress watchdog: converts simulator livelocks into a clean,
 * diagnosable failure instead of an opaque wall-clock timeout.
 *
 * A discrete-event simulation can stop making forward progress in
 * three distinct ways, and the campaign runner wants to tell them
 * apart from a merely *slow* cell:
 *
 *  - frozen time    — events keep executing but simulated time never
 *    advances: a zero-delay event cycle (e.g. two protocol FSMs
 *    endlessly NACKing each other in the same cycle);
 *  - stalled work   — time advances and events execute, but the
 *    progress signature (retired ops, NVM traffic) is flat: a
 *    ping-pong livelock such as a cyclic sharing-list persist
 *    dependency;
 *  - budget blown   — the simulation ran past its simulated-cycle
 *    cap, the classic deadlock backstop.
 *
 * runGuarded() drives an EventQueue in event-count chunks and applies
 * all three checks between chunks, throwing HungError — which carries
 * a caller-supplied state dump — when one trips.  The campaign layer
 * maps HungError to RunStatus::Hung (tsoper_sim exit code 7), which
 * the runner treats as a deterministic verdict: livelocks reproduce
 * under the same seed, so re-running them cannot change the answer.
 *
 * The chunk boundaries are also the run's only safe preemption
 * points: a caller's wall-clock Deadline is checked there and an
 * overrun throws DeadlineExceeded (RunStatus::Timeout).
 */

#ifndef TSOPER_SIM_WATCHDOG_HH
#define TSOPER_SIM_WATCHDOG_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "sim/types.hh"

namespace tsoper
{

class EventQueue;

/** The simulation livelocked or exhausted its simulated-cycle budget;
 *  what() carries the reason plus the machine-state dump. */
struct HungError : std::runtime_error
{
    explicit HungError(const std::string &msg) : std::runtime_error(msg)
    {
    }
};

/** Wall-clock point after which a run stops at its next chunk
 *  boundary; noDeadline never expires. */
using Deadline = std::chrono::steady_clock::time_point;
inline constexpr Deadline noDeadline = Deadline::max();

/** The run passed its Deadline; what() names the phase, the cycle and
 *  the events executed so far. */
struct DeadlineExceeded : std::runtime_error
{
    explicit DeadlineExceeded(const std::string &msg)
        : std::runtime_error(msg)
    {
    }
};

struct WatchdogConfig
{
    /** Events per chunk between checks (> 0). */
    std::uint64_t checkEveryEvents = 2'000'000;

    /** Consecutive chunks with a flat progress signature before the
     *  run is declared hung.  Generous by default: a legal NVM-bound
     *  drain can run many events per retired op. */
    unsigned stallChecks = 8;

    /** Consecutive chunks with simulated time frozen before the run
     *  is declared hung (a zero-delay cycle is damning much faster
     *  than a flat signature). */
    unsigned frozenChecks = 2;
};

/**
 * Chunk-boundary progress tracker.  Feed it the progress signature
 * and the current cycle after every chunk; it reports the first
 * livelock it can prove.
 */
class ProgressWatchdog
{
  public:
    explicit ProgressWatchdog(const WatchdogConfig &cfg) : cfg_(cfg) {}

    /**
     * Record a chunk boundary.  @return an empty string while the run
     * looks alive, else a one-line reason ("no forward progress for
     * ...", "simulated time frozen at cycle ...").
     */
    std::string check(std::uint64_t progress, Cycle now);

    /** Forget all history (a new phase starts). */
    void reset();

  private:
    WatchdogConfig cfg_;
    bool primed_ = false;
    std::uint64_t lastProgress_ = 0;
    Cycle lastCycle_ = 0;
    unsigned stalledChunks_ = 0;
    unsigned frozenChunks_ = 0;
};

/**
 * Run @p eq in chunks of cfg.checkEveryEvents until @p pred holds, the
 * queue drains, or the next event lies beyond @p maxCycles, whichever
 * comes first.  Before every chunk, the first included, it throws
 * DeadlineExceeded once the wall clock has passed @p deadline.  After
 * every chunk that leaves the run going, it evaluates the watchdog over
 * @p progressFn (a monotonic forward-progress signature — retired ops,
 * persisted lines; pick something that moves whenever the phase is
 * genuinely advancing) and throws HungError, appending @p dumpFn's
 * state dump, when it proves a frozen-time or flat-signature livelock.
 */
void runWatched(EventQueue &eq, const std::function<bool()> &pred,
                Cycle maxCycles, const WatchdogConfig &cfg,
                const std::function<std::uint64_t()> &progressFn,
                const std::function<std::string()> &dumpFn,
                const char *phase, Deadline deadline);

/**
 * runWatched() for a phase that must reach @p pred: it also throws
 * HungError when
 *
 *  - the next event lies beyond @p maxCycles (cycle budget blown), or
 *  - the queue drains with @p pred still false (deadlock: everything
 *    is waiting on something that will never happen).
 *
 * Returns normally iff @p pred became true.
 */
void runGuarded(EventQueue &eq, const std::function<bool()> &pred,
                Cycle maxCycles, const WatchdogConfig &cfg,
                const std::function<std::uint64_t()> &progressFn,
                const std::function<std::string()> &dumpFn,
                const char *phase, Deadline deadline = noDeadline);

} // namespace tsoper

#endif // TSOPER_SIM_WATCHDOG_HH
