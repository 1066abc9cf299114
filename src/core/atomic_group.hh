/**
 * @file
 * Per-core atomic-group bookkeeping (§II-A, §III).
 *
 * An atomic group (AG) accumulates the cachelines a core modifies —
 * plus the clean lines it reads out of remote AGs (§III-A) — between
 * two exposures of its modifications.  The AG freezes on the first
 * exposure (remote read/write of a dirty member, eviction, directory
 * eviction, the 80-line cap, or a §II-D marker) and must then persist
 * atomically.
 *
 * Incoming persist-before dependencies are tracked per line through
 * the "waiting to become tail" set: a member line whose sharing-list
 * node has an older predecessor cannot persist until that predecessor's
 * version is buffered (the persist token reaches it).  An AG is ready
 * to persist when it is frozen and no member is still waiting — the
 * cache-level realization of invariant 1 of §IV-B.
 */

#ifndef TSOPER_CORE_ATOMIC_GROUP_HH
#define TSOPER_CORE_ATOMIC_GROUP_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/agb.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

/** Why an atomic group was frozen (stats / tracing). */
enum class FreezeReason
{
    RemoteRead,
    RemoteWrite,
    Eviction,
    DirEviction,
    SizeCap,
    Marker,
    Drain, ///< End-of-run flush.
};

struct AtomicGroup
{
    AgId id = 0;
    CoreId core = invalidCore;
    /** line -> dirty? (false = clean dependence-carrying member). */
    std::unordered_map<LineAddr, bool> members;
    /** Members whose sharing-list node is not yet the tail. */
    std::unordered_set<LineAddr> waitingTail;
    std::uint64_t storeCount = 0; ///< Dynamic stores absorbed (Fig. 15).
    Cycle openedAt = 0; ///< First member's commit cycle (trace spans).
    bool frozen = false;
    FreezeReason freezeReason = FreezeReason::SizeCap;
    bool allocRequested = false;
    bool granted = false;
    unsigned unbuffered = 0; ///< Dirty members not yet in the AGB.
    Agb::AgHandle handle = 0;

    unsigned size() const { return (unsigned)members.size(); }

    unsigned
    dirtyCount() const
    {
        unsigned n = 0;
        for (const auto &[l, d] : members)
            n += d ? 1 : 0;
        return n;
    }

    bool
    readyToPersist() const
    {
        return frozen && waitingTail.empty();
    }
};

/**
 * Manages one core's open AG plus its FIFO of frozen, unpersisted AGs
 * (persisted strictly in program order, §II-A).
 */
class AgManager
{
  public:
    AgManager(CoreId core, unsigned maxLines, Histogram &sizeHist,
              Histogram &dirtyHist);

    /** Record a store commit. @return true if the cap was reached and
     *  the (now full) open AG was auto-frozen. */
    bool addDirty(LineAddr line, bool isTail);

    /** Record a read dependence on a remote AG (§III-A). */
    void addClean(LineAddr line, bool isTail);

    /** Unpersisted AG (open or frozen) holding @p line, if any. */
    AtomicGroup *groupOf(LineAddr line);
    const AtomicGroup *groupOf(LineAddr line) const;

    bool isMember(LineAddr line) const { return membership_.count(line); }

    /** Is @p line in a *frozen* unpersisted AG (store-blocking rule)? */
    bool inFrozenGroup(LineAddr line) const;

    /** Freeze the open AG (no-op if none or empty). @return it. */
    AtomicGroup *freezeOpen(FreezeReason why);

    /** A member line's sharing-list node became the tail. */
    void becameTail(LineAddr line);

    /**
     * @p line 's version (owned by @p ag) was buffered in the AGB: the
     * frozen version is safely in the persistent domain, so the line's
     * membership — and with it the frozen-group store block — ends now,
     * before the whole AG retires.
     */
    void releaseBufferedLine(AtomicGroup &ag, LineAddr line);

    /** Oldest unpersisted AG (persist order), nullptr if none. */
    AtomicGroup *oldest();

    /** All unpersisted AGs, oldest first (includes the open one). */
    const std::deque<std::unique_ptr<AtomicGroup>> &queue() const
    {
        return queue_;
    }

    /** Retire a fully persisted AG (must be the oldest). Clears
     *  membership; returns its clean members for release. */
    std::vector<LineAddr> retireOldest();

    bool empty() const { return queue_.empty(); }

    /** Id of the open AG, or of the AG that would open next — the group
     *  an incoming pb dependence lands in (trace pb-edges). */
    AgId
    openOrNextId() const
    {
        if (!queue_.empty() && !queue_.back()->frozen)
            return queue_.back()->id;
        return nextId_;
    }

  private:
    AtomicGroup &openGroup();

    CoreId core_;
    unsigned maxLines_;
    Histogram &sizeHist_;
    Histogram &dirtyHist_;
    /** Oldest first; the back element is the open AG iff !frozen. */
    std::deque<std::unique_ptr<AtomicGroup>> queue_;
    std::unordered_map<LineAddr, AtomicGroup *> membership_;
    AgId nextId_ = 1;
};

} // namespace tsoper

#endif // TSOPER_CORE_ATOMIC_GROUP_HH
