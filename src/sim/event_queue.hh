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
 *    global sequence order (test: TieOrderAcrossWheelWrapAndMigration).
 *
 * Callbacks are InlineCallback (sim/callback.hh) and never move once
 * scheduled: schedule() builds the callable straight into a slot of
 * chunked, address-stable storage (free slots on a LIFO list, so the
 * most recently run slot, still in cache, is reused first), a bucket
 * is a FIFO of slot indexes linked through the slots (head and tail),
 * the far heap holds plain (cycle, seq, slot) triples, and the event
 * runs in its slot, which is then destroyed and freed, also when the
 * callback throws.  Scheduling never touches the allocator once the
 * slots cover the peak number of pending events.
 */

#ifndef TSOPER_SIM_EVENT_QUEUE_HH
#define TSOPER_SIM_EVENT_QUEUE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
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

    /** Destroys every pending callback. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p fn to run at absolute cycle @p when (>= now()).  The
     * Callback is constructed from @p fn in its slot, so a lambda is
     * built there once and never relocated.
     */
    template <typename F>
    void
    schedule(Cycle when, F &&fn)
    {
        static_assert(
            std::is_nothrow_constructible_v<std::decay_t<F>, F &&>,
            "a scheduled callable must be built without throwing, so a "
            "slot is never left half-made");
        if (when < now_)
            pastPanic(when);
        const SlotId s = acquireSlot();
        ::new (static_cast<void *>(slotAt(s).storage))
            Callback(std::forward<F>(fn));
        enqueue(when, s);
    }

    /** Schedule @p fn to run @p delta cycles from now. */
    template <typename F>
    void
    scheduleIn(Cycle delta, F &&fn)
    {
        schedule(now_ + delta, std::forward<F>(fn));
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

    using SlotId = std::uint32_t;
    static constexpr SlotId noSlot = ~SlotId{0};
    /** Slots per chunk; chunks never move, so neither do callbacks. */
    static constexpr SlotId chunkSlots = 256;

    /** Storage for one pending callback.  @c next links the slot into
     *  its bucket's FIFO, or into the free list. */
    struct Slot
    {
        alignas(Callback) std::byte storage[sizeof(Callback)];
        SlotId next;

        Callback &
        fn()
        {
            return *std::launder(reinterpret_cast<Callback *>(storage));
        }
    };

    /** One wheel bucket: the FIFO of events for a single cycle,
     *  linked through Slot::next. */
    struct Bucket
    {
        SlotId head = noSlot;
        SlotId tail = noSlot;
    };

    struct FarEvent
    {
        Cycle when;
        std::uint64_t seq;
        SlotId slot;
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

    Slot &
    slotAt(SlotId s)
    {
        return chunks_[s / chunkSlots][s % chunkSlots];
    }

    SlotId
    acquireSlot()
    {
        if (free_ == noSlot)
            addChunk();
        const SlotId s = free_;
        free_ = slotAt(s).next;
        return s;
    }

    void
    releaseSlot(SlotId s)
    {
        slotAt(s).next = free_;
        free_ = s;
    }

    /** Thread a new chunk of slots onto the (empty) free list. */
    void addChunk();

    [[noreturn]] void pastPanic(Cycle when) const;

    /** File the constructed callback in slot @p s under cycle @p when. */
    void enqueue(Cycle when, SlotId s);

    /** Append slot @p s to the bucket for @p when. */
    void append(Cycle when, SlotId s);

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

    std::vector<std::unique_ptr<Slot[]>> chunks_;
    SlotId free_ = noSlot; ///< LIFO free list through Slot::next.
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
