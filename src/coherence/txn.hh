/**
 * @file
 * Multi-message transaction bookkeeping for the decomposed directory
 * protocols (DESIGN.md, "Message bus and transaction legs"):
 *
 *  - TxnTable: home-side transaction entries.  A directory bank that
 *    decomposes a request into several message legs (invalidations
 *    expecting acks, a data fetch, a permission grant) opens an entry
 *    with the number of outstanding legs; each reply folds its arrival
 *    cycle into the entry, and the completion fires — with the
 *    maximum over all legs — when the last one lands.
 *
 *  - Mshr: core-side miss-status holding registers.  A core tracks at
 *    most a fixed number of distinct missing lines in flight; a miss
 *    to a *new* line with all registers busy waits in a FIFO and
 *    retries as registers free.  A repeat access to an already-tracked
 *    line proceeds immediately (a secondary miss merges into the
 *    primary's register).
 */

#ifndef TSOPER_COHERENCE_TXN_HH
#define TSOPER_COHERENCE_TXN_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

class TxnTable
{
  public:
    using Id = std::uint64_t;
    /** Runs when the last leg lands, with the fold (max) of all leg
     *  cycles — which equals the current cycle, since legs arrive in
     *  event order. */
    using Completion = std::function<void(Cycle)>;

    explicit TxnTable(StatsRegistry &stats);

    /** Open an entry waiting on @p waits legs (>= 1). */
    Id begin(LineAddr line, CoreId requester, unsigned waits,
             Completion completion);

    /** One leg of @p id finished at @p at; fires the completion (and
     *  retires the entry) when the wait count reaches zero. */
    void legDone(Id id, Cycle at);

    /** Entries currently in flight (bounded by line serialization, not
     *  by the address footprint; asserted in test_directory). */
    std::size_t open() const { return entries_.size(); }

  private:
    struct Entry
    {
        LineAddr line;
        CoreId requester;
        unsigned waits;
        Cycle readyAt;
        Completion completion;
    };

    std::unordered_map<Id, Entry> entries_;
    Id next_ = 0;
    Counter &allocs_;
    Counter &legs_;
    Histogram &occupancy_;
};

class Mshr
{
  public:
    Mshr(EventQueue &eq, unsigned cores, unsigned entriesPerCore,
         StatsRegistry &stats);

    /** Is a miss for (core, line) already in flight? */
    bool has(CoreId core, LineAddr line) const;

    bool full(CoreId core) const;

    /** Track a new primary miss; (core, line) must not be tracked and
     *  the core must have a free register. */
    void enter(CoreId core, LineAddr line);

    /** Retire (core, line)'s register; if retries are parked, the
     *  oldest is rescheduled (zero-delay) to claim the freed slot. */
    void leave(CoreId core, LineAddr line);

    /** Park @p retry until one of @p core's registers frees (FIFO). */
    void defer(CoreId core, std::function<void()> retry);

    std::size_t inFlight(CoreId core) const;

  private:
    struct PerCore
    {
        std::unordered_set<LineAddr> lines;
        std::deque<std::function<void()>> retries;
    };

    EventQueue &eq_;
    unsigned entriesPerCore_;
    std::vector<PerCore> cores_;
    Counter &fullStalls_;
    Histogram &occupancy_;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_TXN_HH
