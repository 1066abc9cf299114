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
 *  - DirectoryCapacity: finite directory storage with set-associative
 *    victim selection and an eviction buffer for entries whose lines
 *    are still persisting (§III-B).
 */

#ifndef TSOPER_COHERENCE_DIRECTORY_HH
#define TSOPER_COHERENCE_DIRECTORY_HH

#include <optional>
#include <unordered_map>
#include <vector>

#include "mem/cache_array.hh"
#include "sim/callback.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
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
 * Finite directory entry storage.  An entry exists while its line has
 * any presence in private caches.  Allocating into a full set evicts a
 * victim entry, whose teardown the protocol performs via the callback
 * given to allocate(); entries mid-teardown occupy the eviction buffer.
 */
class DirectoryCapacity
{
  public:
    DirectoryCapacity(unsigned entriesPerBank, unsigned banks,
                      unsigned evictBufferEntries, StatsRegistry &stats);

    /**
     * Ensure an entry for @p line exists.
     * @return the victim line whose entry must be torn down, if any.
     */
    std::optional<LineAddr> allocate(LineAddr line);

    /** Drop @p line's entry (its sharing list / sharer set emptied). */
    void release(LineAddr line);

    /** Pin @p line's entry while a deferred transaction holds it open:
     *  pinned entries are skipped by victim selection, so a teardown
     *  triggered from another line's allocate() cannot race the
     *  in-flight message legs.  A no-op if the entry was voluntarily
     *  released meanwhile (all presence vanished mid-flight) — only
     *  *forced* eviction must be excluded. */
    void
    setPinned(LineAddr line, bool pinned)
    {
        if (array_.contains(line))
            array_.setPinned(line, pinned);
    }

    bool contains(LineAddr line) const { return array_.contains(line); }

    /** Teardown bookkeeping for evicted entries. */
    void evictBufferEnter(LineAddr line);
    void evictBufferLeave(LineAddr line);
    bool inEvictBuffer(LineAddr line) const;
    std::size_t evictBufferOccupancy() const { return evictBuffer_.size(); }

    std::size_t entries() const { return array_.size(); }

  private:
    CacheArray array_;
    std::unordered_map<LineAddr, bool> evictBuffer_;
    Counter &evictions_;
    Histogram &evictBufferHist_;
    unsigned evictBufferCap_;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_DIRECTORY_HH
