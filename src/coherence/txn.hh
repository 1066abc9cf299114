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
 *  - Mshr: core-side miss-status holding registers, a fixed set of
 *    slots per core.  A core tracks at most that many distinct missing
 *    lines in flight; a miss to a *new* line with all registers busy
 *    waits in a FIFO and retries as registers free.  A repeat access
 *    to an already-tracked line proceeds immediately (a secondary miss
 *    merges into the primary's register).  The primary's reply leg
 *    retires the register right before its completion runs (reply()).
 */

#ifndef TSOPER_COHERENCE_TXN_HH
#define TSOPER_COHERENCE_TXN_HH

#include <cstdint>
#include <vector>

#include "noc/message_bus.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
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
     *  event order.  Sized for a protocol closure holding a StoreDone. */
    using Completion = InlineFunction<void(Cycle), 72>;

    explicit TxnTable(StatsRegistry &stats);

    /** Open an entry waiting on @p waits legs (>= 1). */
    Id begin(LineAddr line, CoreId requester, unsigned waits,
             Completion completion);

    /** One leg of @p id finished at @p at; fires the completion (and
     *  retires the entry) when the wait count reaches zero. */
    void legDone(Id id, Cycle at);

    /** Entries currently in flight (bounded by line serialization, not
     *  by the address footprint; asserted in test_directory). */
    std::size_t open() const { return open_; }

  private:
    struct Entry
    {
        LineAddr line = 0;
        CoreId requester = invalidCore;
        unsigned waits = 0; ///< 0 = free slot.
        Cycle readyAt = 0;
        Completion completion;
    };

    /** Slots indexed by Id; retired slots are reused (free_). */
    std::vector<Entry> entries_;
    std::vector<Id> free_;
    std::size_t open_ = 0;
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

    /** May a miss to (core, line) proceed — as a secondary of the
     *  in-flight primary, or as a primary claiming a free register
     *  (*claimed = true)?  False: all busy, the caller must defer(). */
    bool admit(CoreId core, LineAddr line, bool *claimed);

    /** Track a new primary miss; (core, line) must not be tracked and
     *  the core must have a free register. */
    void enter(CoreId core, LineAddr line);

    /** Retire (core, line)'s register; if retries are parked, the
     *  oldest is rescheduled (zero-delay) to claim the freed slot. */
    void leave(CoreId core, LineAddr line);

    /** Run a miss's completion @p done(args...), first retiring its
     *  register if the miss is the primary that claimed it (@p held). */
    template <typename Done, typename... Args>
    void
    complete(CoreId core, LineAddr line, bool held, Done &done,
             Args... args)
    {
        if (held)
            leave(core, line);
        done(args...);
    }

    /** Send a miss's reply leg from tile @p src to @p core; its arrival
     *  completes the miss (complete()).  @return the arrival cycle. */
    template <typename Done, typename... Value>
    Cycle
    reply(MessageBus &bus, int src, CoreId core, LineAddr line, bool held,
          unsigned bytes, Cycle depart, Done done, Value... value)
    {
        return bus.send(src, bus.coreNode(core), bytes, depart,
                        [this, core, line, held, value...,
                         done = std::move(done)]() mutable {
                            complete(core, line, held, done, eq_.now(),
                                     value...);
                        });
    }

    /** Park @p retry until one of @p core's registers frees (FIFO). */
    void defer(CoreId core, InlineCallback retry);

    std::size_t inFlight(CoreId core) const;

  private:
    struct PerCore
    {
        std::vector<LineAddr> lines; ///< Slots; capacity reserved.
        Fifo<InlineCallback> retries;
    };

    EventQueue &eq_;
    unsigned entriesPerCore_;
    std::vector<PerCore> cores_;
    Counter &fullStalls_;
    Histogram &occupancy_;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_TXN_HH
