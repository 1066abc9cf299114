/**
 * @file
 * Directory-side utilities shared by the MESI and SLC protocols:
 *
 *  - LineSerializer: per-cacheline FIFO transaction dispatch.  Each
 *    line admits one transaction at a time; a transaction body runs at
 *    its dispatch cycle, commits protocol state, and returns the cycle
 *    at which the line's directory slot frees up — or defers, keeping
 *    the line held while the transaction's message legs (data fetch,
 *    invalidation acks) are in flight, and frees it via releaseAt()
 *    when the completing leg lands.  This realizes the serialization
 *    the paper's directory performs; a deferred body plus its reply
 *    handlers are the transaction's transient states.
 *
 *  - DirectoryCapacity<Entry>: finite directory storage that owns each
 *    line's protocol entry, with set-associative victim selection and
 *    a fixed eviction buffer for entries whose lines are still
 *    persisting (§III-B).
 */

#ifndef TSOPER_COHERENCE_DIRECTORY_HH
#define TSOPER_COHERENCE_DIRECTORY_HH

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "sim/log.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

class LineSerializer
{
  public:
    /** Transaction body: runs at its dispatch cycle and returns the
     *  cycle at which the next transaction for the line may dispatch,
     *  or nullopt for a *deferred* transaction whose completing
     *  message leg calls releaseAt() once it lands (sized to ride in
     *  a request message event). */
    using Body = InlineFunction<std::optional<Cycle>(Cycle), 88>;

    explicit LineSerializer(EventQueue &eq) : eq_(eq) {}

    /** Queue @p body for @p line; dispatches now if the line is idle. */
    void submit(LineAddr line, Body body);

    /** Free @p line — held open by a deferred body — at cycle @p at
     *  (>= now), dispatching the next queued transaction there. */
    void releaseAt(LineAddr line, Cycle at);

    bool busy(LineAddr line) const;

    /**
     * Lines currently tracked (busy or queued).  Idle lines are erased
     * on release, so this is bounded by the in-flight transaction
     * count, not by the address footprint of the run — long campaigns
     * must not grow it monotonically (asserted in test_directory).
     */
    std::size_t trackedLines() const { return lines_.size(); }

  private:
    struct LineState
    {
        bool busy = false;
        Fifo<Body> queue; ///< Allocates nothing while empty.
    };

    void dispatch(LineAddr line, LineState &state, Body body);
    void release(LineAddr line);

    using LineMap = std::unordered_map<LineAddr, LineState>;

    EventQueue &eq_;
    LineMap lines_;
    std::vector<LineMap::node_type> spare_; ///< Released nodes, for reuse.
};

/**
 * Finite directory entry storage that owns the protocol's per-line
 * Entry.  An entry exists while its line has any presence in private
 * caches.  Allocating into a full set evicts a victim entry, which
 * allocate() hands back for the protocol to tear down; an entry still
 * mid-teardown lives in the fixed eviction buffer (§III-B).
 */
template <typename Entry>
class DirectoryCapacity
{
  public:
    DirectoryCapacity(unsigned entriesPerBank, unsigned banks,
                      unsigned evictBufferEntries, StatsRegistry &stats)
        : array_(std::max(1u, entriesPerBank / 8) * banks, 8,
                 /*setShift=*/0),
          evictBuffer_(evictBufferEntries, "directory eviction buffer"),
          evictions_(stats.counter("dir.evictions")),
          evictBufferHist_(stats.histogram("dir.evict_buffer_occupancy"))
    {
    }

    /** Ensure an entry for @p line exists (a new one value-initialized);
     *  a displaced victim's line and Entry come back for teardown. */
    typename CacheArray<Entry>::Insert
    allocate(LineAddr line)
    {
        auto result = array_.insert(line);
        if (result.noSpace)
            tsoper_panic("directory set fully pinned");
        if (result.evicted)
            evictions_.inc();
        return result;
    }

    /** @p line 's entry, resident or mid-teardown; null if none. */
    Entry *
    find(LineAddr line)
    {
        if (Entry *e = array_.find(line))
            return e;
        return evictBuffer_.find(line);
    }

    const Entry *
    find(LineAddr line) const
    {
        return const_cast<DirectoryCapacity *>(this)->find(line);
    }

    /** Drop @p line's entry, resident or parked (presence emptied). */
    void
    release(LineAddr line)
    {
        if (!array_.erase(line))
            evictBufferLeave(line);
    }

    /** Pin @p line's entry while a deferred transaction holds it open:
     *  pinned entries are skipped by victim selection, so a teardown
     *  triggered from another line's allocate() cannot race the
     *  in-flight message legs.  A no-op if the entry was voluntarily
     *  released meanwhile (all presence vanished mid-flight) — only
     *  *forced* eviction must be excluded. */
    void
    setPinned(LineAddr line, bool pinned)
    {
        if (Entry *e = array_.find(line))
            array_.setPinned(e, pinned);
    }

    /** Park an evicted @p entry for @p line until its teardown ends.
     *  The paper sizes the buffer never to backpressure; the model has
     *  no backpressure path, so exceeding the cap panics. */
    Entry &
    evictBufferEnter(LineAddr line, const Entry &entry)
    {
        Entry &parked = evictBuffer_.park(line, entry);
        evictBufferHist_.add(evictBuffer_.size());
        return parked;
    }

    void evictBufferLeave(LineAddr line) { evictBuffer_.erase(line); }

    bool
    inEvictBuffer(LineAddr line) const
    {
        return evictBuffer_.find(line) != nullptr;
    }

    std::size_t evictBufferOccupancy() const { return evictBuffer_.size(); }

  private:
    CacheArray<Entry> array_;
    EvictBuffer<Entry> evictBuffer_;
    Counter &evictions_;
    Histogram &evictBufferHist_;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_DIRECTORY_HH
