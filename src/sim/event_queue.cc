#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/log.hh"

namespace tsoper
{

EventQueue::EventQueue() : wheel_(wheelSize) {}

void
EventQueue::schedule(Cycle when, Callback fn)
{
    tsoper_assert(when >= now_, "scheduling into the past: when=", when,
                  " now=", now_);
    const std::uint64_t seq = nextSeq_++;
    ++size_;
    // now_ == wheelBase_ between events, so when - wheelBase_ cannot
    // underflow and the window test needs no overflow-prone addition.
    if (when - wheelBase_ < wheelSize) {
        Bucket &b = bucketOf(when);
        b.events.push_back(std::move(fn));
        markOccupied(when);
        ++wheelCount_;
        // Within one bucket, append order is seq order: direct
        // schedules are monotonic, and heap migration (see
        // migrateFar) only ever fills buckets before any direct
        // schedule can target their cycle.
        (void)seq;
    } else {
        far_.push_back(FarEvent{when, seq, std::move(fn)});
        std::push_heap(far_.begin(), far_.end(), FarLater{});
    }
}

void
EventQueue::migrateFar()
{
    while (!far_.empty() && far_.front().when - wheelBase_ < wheelSize) {
        std::pop_heap(far_.begin(), far_.end(), FarLater{});
        FarEvent ev = std::move(far_.back());
        far_.pop_back();
        Bucket &b = bucketOf(ev.when);
        b.events.push_back(std::move(ev.fn));
        markOccupied(ev.when);
        ++wheelCount_;
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
    Callback fn = std::move(b.events[b.head]);
    ++b.head;
    --wheelCount_;
    --size_;
    if (b.head == b.events.size()) {
        // Keep the vector's capacity: this slot will host another
        // cycle wheelSize cycles from now.
        b.events.clear();
        b.head = 0;
        clearOccupied(when);
    }
    ++executed_;
    fn();
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
