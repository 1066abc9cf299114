#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/log.hh"

namespace tsoper
{

EventQueue::EventQueue() : wheel_(wheelSize) {}

EventQueue::~EventQueue()
{
    for (const Bucket &b : wheel_)
        for (SlotId s = b.head; s != noSlot; s = slotAt(s).next)
            slotAt(s).fn().~Callback();
    for (const FarEvent &ev : far_)
        slotAt(ev.slot).fn().~Callback();
}

void
EventQueue::addChunk()
{
    const auto first = static_cast<SlotId>(chunks_.size() * chunkSlots);
    tsoper_assert(first <= noSlot - chunkSlots, "event slots exhausted");
    chunks_.push_back(std::make_unique_for_overwrite<Slot[]>(chunkSlots));
    // Lowest index on top, so slots are handed out in address order.
    for (SlotId i = chunkSlots; i-- > 0;)
        releaseSlot(first + i);
}

void
EventQueue::pastPanic(Cycle when) const
{
    tsoper_panic("scheduling into the past: when=", when, " now=", now_);
}

void
EventQueue::enqueue(Cycle when, SlotId s)
{
    const std::uint64_t seq = nextSeq_++;
    ++size_;
    // now_ == wheelBase_ between events, so when - wheelBase_ cannot
    // underflow and the window test needs no overflow-prone addition.
    if (when - wheelBase_ < wheelSize) {
        // Within one bucket, append order is seq order: direct
        // schedules are monotonic, and heap migration (see
        // migrateFar) only ever fills buckets before any direct
        // schedule can target their cycle.
        append(when, s);
    } else {
        far_.push_back(FarEvent{when, seq, s});
        std::push_heap(far_.begin(), far_.end(), FarLater{});
    }
}

void
EventQueue::append(Cycle when, SlotId s)
{
    Bucket &b = bucketOf(when);
    slotAt(s).next = noSlot;
    if (b.tail == noSlot) {
        b.head = s;
        markOccupied(when);
    } else {
        slotAt(b.tail).next = s;
    }
    b.tail = s;
    ++wheelCount_;
}

void
EventQueue::migrateFar()
{
    while (!far_.empty() && far_.front().when - wheelBase_ < wheelSize) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        const FarEvent ev = far_.back();
        far_.pop_back();
        append(ev.when, ev.slot);
    }
}

bool
EventQueue::peekNext(Cycle *when) const
{
    if (wheelCount_ > 0) {
        // All wheel events lie in [wheelBase_, wheelBase_ + wheelSize);
        // the first occupied bucket cyclically from wheelBase_'s slot
        // is therefore the globally earliest event (the far heap only
        // holds events at or beyond the window's end).
        const std::size_t start = wheelBase_ & wheelMask_;
        std::size_t word = start >> 6;
        std::uint64_t bits = occupied_[word] & (~0ull << (start & 63));
        for (std::size_t scanned = 0; scanned <= bitmapWords_;
             ++scanned) {
            if (bits) {
                const std::size_t idx =
                    (word << 6) +
                    static_cast<std::size_t>(std::countr_zero(bits));
                *when = wheelBase_ + ((idx - start) & wheelMask_);
                return true;
            }
            word = (word + 1) & (bitmapWords_ - 1);
            bits = occupied_[word];
        }
        tsoper_panic("wheel count ", wheelCount_,
                     " but no occupied bucket");
    }
    if (!far_.empty()) {
        *when = far_.front().when;
        return true;
    }
    return false;
}

void
EventQueue::execNextAt(Cycle when)
{
    if (when > wheelBase_) {
        // Advancing the window may newly cover far-future events
        // (including the one we are about to execute, when the wheel
        // was empty and @p when came from the heap).
        wheelBase_ = when;
        migrateFar();
    }
    now_ = when;
    Bucket &b = bucketOf(when);
    const SlotId s = b.head;
    Slot &slot = slotAt(s);
    b.head = slot.next;
    if (b.head == noSlot) {
        b.tail = noSlot;
        clearOccupied(when);
    }
    --wheelCount_;
    --size_;
    ++executed_;
    // Run the callback where it lies.  Its slot stays off the free list
    // until it has returned (or thrown) and been destroyed, so events
    // it schedules take other slots; chunks never move, so @c slot
    // stays valid while they are added.
    struct Retire
    {
        EventQueue &eq;
        SlotId s;
        Slot &slot;
        ~Retire()
        {
            slot.fn().~Callback();
            eq.releaseSlot(s);
        }
    } retire{*this, s, slot};
    slot.fn()();
}

bool
EventQueue::runOne()
{
    Cycle when;
    if (!peekNext(&when))
        return false;
    execNextAt(when);
    return true;
}

Cycle
EventQueue::run(Cycle maxCycle)
{
    Cycle when;
    while (peekNext(&when) && when <= maxCycle)
        execNextAt(when);
    return now_;
}

Cycle
EventQueue::runUntil(const std::function<bool()> &pred, Cycle maxCycle)
{
    Cycle when;
    while (!pred() && peekNext(&when) && when <= maxCycle)
        execNextAt(when);
    return now_;
}

Cycle
EventQueue::runFor(const std::function<bool()> &pred, Cycle maxCycle,
                   std::uint64_t maxEvents)
{
    Cycle when;
    std::uint64_t ran = 0;
    while (ran < maxEvents && !pred() && peekNext(&when) &&
           when <= maxCycle) {
        execNextAt(when);
        ++ran;
    }
    return now_;
}

} // namespace tsoper
