/**
 * @file
 * Global discrete-event kernel.
 *
 * Every timed activity in the simulator — core retirement, NoC message
 * delivery, directory transaction execution, memory-controller service,
 * AGB drain — is an event on one queue, ordered by (cycle, insertion
 * sequence).  Ties are broken by insertion order, which makes the whole
 * simulation deterministic.
 *
 * The implementation is a two-level calendar queue tuned for the
 * simulator's event mix, where almost every schedule lands a few
 * cycles ahead (zero-delay continuations, privLatency, NoC hops):
 *
 *  - Near future — a bucket wheel of `wheelSize` cycles starting at
 *    the current cycle.  Each bucket is a FIFO of events for exactly
 *    one cycle, so appending preserves the (cycle, seq) total order
 *    with no comparisons and O(1) schedule/pop.  A bitmap tracks
 *    occupied buckets; finding the next event cycle is a word-wise
 *    scan instead of a heap sift.
 *
 *  - Far future — events at or beyond `now + wheelSize` (NVM
 *    completions, watchdog timeouts) wait in a binary min-heap keyed
 *    by (cycle, seq) and migrate into the wheel when time advances far
 *    enough.  Migration happens before any new event can be scheduled
 *    into the uncovered range, so per-bucket FIFO order still equals
 *    global sequence order (test: TieOrderAcrossWheelWrap).
 *
 * Callbacks are InlineCallback (sim/callback.hh): fixed in-place
 * storage, so schedule() never touches the allocator.
 */

#ifndef TSOPER_SIM_EVENT_QUEUE_HH
#define TSOPER_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace tsoper
{

class EventQueue
{
  public:
    using Callback = InlineCallback;

    /** Cycles the near-future wheel covers; power of two. */
    static constexpr std::size_t wheelSize = 1024;

    EventQueue();

    /** Schedule @p fn to run at absolute cycle @p when (>= now()). */
    void schedule(Cycle when, Callback fn);

    /** Schedule @p fn to run @p delta cycles from now. */
    void
    scheduleIn(Cycle delta, Callback fn)
    {
        schedule(now_ + delta, std::move(fn));
    }

    /** Execute the next event, advancing time. @return false if empty. */
    bool runOne();

    /**
     * Run until the queue drains or @p maxCycle is passed.
     * @return the final simulated cycle.
     */
    Cycle run(Cycle maxCycle = maxCycle_);

    /**
     * Run until @p pred returns true (checked after each event), the
     * queue drains, or @p maxCycle passes.
     */
    Cycle runUntil(const std::function<bool()> &pred,
                   Cycle maxCycle = maxCycle_);

    /**
     * Like runUntil, but additionally stops after executing at most
     * @p maxEvents events — the chunked stepping the progress
     * watchdog (sim/watchdog.hh) uses to inspect the machine between
     * bursts without a per-event predicate cost.
     */
    Cycle runFor(const std::function<bool()> &pred, Cycle maxCycle,
                 std::uint64_t maxEvents);

    Cycle now() const { return now_; }

    bool empty() const { return size_ == 0; }

    std::size_t pending() const { return size_; }

    std::uint64_t executed() const { return executed_; }

  private:
    static constexpr Cycle maxCycle_ = maxCycle;
    static constexpr std::size_t wheelMask_ = wheelSize - 1;
    static constexpr std::size_t bitmapWords_ = wheelSize / 64;

    /** One wheel slot: the FIFO of events for a single cycle.  head_
     *  indexes the next event so pops don't shift the vector; the
     *  vector's capacity is retained across cycles. */
    struct Bucket
    {
        std::vector<Callback> events;
        std::size_t head = 0;
    };

    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        Callback fn;
    };

    /** Min-heap order for the far-future heap (std::push_heap builds a
     *  max-heap, so "greater" here). */
    struct FarLater
    {
        bool
        operator()(const FarEvent &a, const FarEvent &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    /** Cycle of the next event, or maxCycle_ + nothing: returns false
     *  when the queue is empty. */
    bool peekNext(Cycle *when) const;

    /** Execute the front event of the (non-empty) bucket for @p when,
     *  advancing now_ and migrating far-future events first. */
    void execNextAt(Cycle when);

    /** Pull far-future events now covered by the wheel window
     *  [wheelBase_, wheelBase_ + wheelSize) out of the heap. */
    void migrateFar();

    Bucket &bucketOf(Cycle when) { return wheel_[when & wheelMask_]; }

    void
    markOccupied(Cycle when)
    {
        const std::size_t i = when & wheelMask_;
        occupied_[i >> 6] |= 1ull << (i & 63);
    }

    void
    clearOccupied(Cycle when)
    {
        const std::size_t i = when & wheelMask_;
        occupied_[i >> 6] &= ~(1ull << (i & 63));
    }

    std::vector<Bucket> wheel_;
    std::array<std::uint64_t, bitmapWords_> occupied_{};
    std::vector<FarEvent> far_; ///< Heap ordered by FarLater.

    /** Earliest cycle the wheel can hold; advances with now_. */
    Cycle wheelBase_ = 0;
    std::size_t wheelCount_ = 0;
    std::size_t size_ = 0;

    Cycle now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

} // namespace tsoper

#endif // TSOPER_SIM_EVENT_QUEUE_HH
