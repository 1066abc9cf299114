/**
 * @file
 * Common interface between cores, coherence protocols, and persistency
 * engines.
 *
 * The simulator uses a transaction-atomic timing model (DESIGN.md §1):
 * each coherence transaction *commits* its state changes at the
 * directory-serialization instant, while its *cost* is computed from
 * explicit message legs over the NoC and queued resources.  Functional
 * values therefore always reflect the serialization order; completion
 * callbacks carry the timing.
 */

#ifndef TSOPER_COHERENCE_PROTOCOL_HH
#define TSOPER_COHERENCE_PROTOCOL_HH

#include "mem/nvm.hh"
#include "sim/callback.hh"
#include "sim/store_log.hh"
#include "sim/types.hh"

namespace tsoper
{

/** Why a dirty version left (or was exposed from) a private cache. */
enum class ExposeReason
{
    RemoteRead,  ///< Another core read the line.
    RemoteWrite, ///< Another core claimed the line for writing.
    Eviction,    ///< Capacity eviction from the private cache.
    DirEviction, ///< Directory entry eviction forced the exposure.
};

/**
 * Callbacks through which a coherence protocol informs the persistency
 * engine of the events that drive atomic-group formation, freezing, and
 * BSP's exclusion windows.  All calls happen at directory-serialization
 * instants, so the engine observes a single consistent logical order.
 */
class ProtocolHooks
{
  public:
    virtual ~ProtocolHooks() = default;

    /**
     * A remote @p requester takes over (reads or writes) a dirty
     * version held by @p owner.  The engine may delay the handover —
     * BSP's L1 exclusion — by returning a cycle later than @p now at
     * which the owner may supply the data.
     */
    virtual Cycle
    onDirtyExpose(CoreId owner, LineAddr line, CoreId requester,
                  bool forWrite, Cycle now)
    {
        (void)owner; (void)line; (void)requester; (void)forWrite;
        return now;
    }

    /**
     * @p reader linked a line whose current version is dirty in a
     * remote atomic group; the reader must record the incoming
     * persist-before dependence by including the line in its own AG
     * (§III-A, "The Role of the Reads").
     */
    virtual void
    onReadDependence(CoreId reader, LineAddr line, Cycle now)
    {
        (void)reader; (void)line; (void)now;
    }

    /**
     * A dirty version left @p owner's private cache for a reason that
     * is not a remote request (capacity or directory eviction).  With a
     * persistency engine this freezes the AG and starts its persist;
     * without one the protocol has already written the data back.
     */
    virtual void
    onDirtyEvict(CoreId owner, LineAddr line, ExposeReason why, Cycle now)
    {
        (void)owner; (void)line; (void)why; (void)now;
    }

    /**
     * May a store by @p core to @p line commit to the private cache?
     * False when the line belongs to a frozen atomic group (§II-A) or
     * a closed, unpersisted BSP epoch.  Asked by the core before it
     * issues the store, and again by the protocol at the store
     * transaction's serialization instant: the gate may have opened
     * and closed again while the request was in flight.
     */
    virtual bool
    storeMayCommit(CoreId core, LineAddr line)
    {
        (void)core; (void)line;
        return true;
    }

    /** Register @p retry to run once a blocked store may make
     *  progress (only after storeMayCommit returned false). */
    virtual void addStoreWaiter(CoreId core, LineAddr line,
                                InlineCallback retry);

    /**
     * A store by @p core committed into its private cache at the
     * serialization instant @p now (the line's new version is dirty).
     */
    virtual void
    onStoreCommitted(CoreId core, LineAddr line, Cycle now)
    {
        (void)core; (void)line; (void)now;
    }

    /** SLC only: (core, line)'s node became its sharing list's tail. */
    virtual void
    onBecameTail(CoreId core, LineAddr line, Cycle now)
    {
        (void)core; (void)line; (void)now;
    }

    /**
     * SLC only: may an invalidated dirty version be dropped without
     * persisting?  Baselines say yes; persistency engines say no —
     * the node stays on the sharing list until it persists
     * (non-destructive invalidation, §IV-A principle 1).
     */
    virtual bool dropsInvalidDirty() const { return true; }

    /**
     * SLC only: is (core, line) a member of an unpersisted atomic
     * group?  Clean members must stay linked so the incoming pb
     * dependence they encode survives until satisfied.
     */
    virtual bool
    lineInUnpersistedAg(CoreId core, LineAddr line) const
    {
        (void)core; (void)line;
        return false;
    }

    /**
     * SLC only: is (core, line) a member of a *frozen* AG?  A frozen
     * group's members must not be re-linked (that could add an incoming
     * dependence after the freeze and break the §III-C cycle-freedom
     * argument); re-accesses stall until the group persists.
     */
    virtual bool
    lineInFrozenAg(CoreId core, LineAddr line) const
    {
        (void)core; (void)line;
        return false;
    }

    /**
     * SLC only: (core, line)'s node was spliced and re-linked at the
     * head of its sharing list (a re-access of a stale clean copy).
     * The engine must recompute the line's persist-tail dependence —
     * re-linking may move it above unpersisted versions (a legal *new*
     * incoming dependence of its still-open AG).
     */
    virtual void
    onNodeRelinked(CoreId core, LineAddr line, Cycle now)
    {
        (void)core; (void)line; (void)now;
    }
};

/** Complexity summary used by bench/table_protocol_complexity. */
struct ProtocolComplexity
{
    const char *name;
    int stableStates;
    int requestTypes;
    int protocolActions;
};

/** Abstract coherence protocol driven by the cores. */
class CoherenceProtocol
{
  public:
    /** Load completion: delivery cycle and the observed word value. */
    using LoadDone = InlineFunction<void(Cycle, StoreId), 40>;
    /** Store completion: the cycle write permission/retire happened. */
    using StoreDone = InlineFunction<void(Cycle), 40>;

    virtual ~CoherenceProtocol() = default;

    /**
     * Perform a load by @p core of the word at @p addr.  The value is
     * bound at the serialization instant; @p done carries the timing.
     */
    virtual void load(CoreId core, Addr addr, LoadDone done) = 0;

    /**
     * Perform a store (the head of @p core's store buffer).  The new
     * value is committed at the serialization instant.
     */
    virtual void store(CoreId core, Addr addr, StoreId store,
                       StoreDone done) = 0;

    /** Install the engine callbacks (must precede any traffic). */
    void setHooks(ProtocolHooks *hooks) { hooks_ = hooks; }

    /** Optional execution recording for the crash checker. */
    void setStoreLog(StoreLog *log) { log_ = log; }

    virtual ProtocolComplexity complexity() const = 0;

  protected:
    void
    logStore(CoreId core, Addr addr, StoreId id)
    {
        if (log_)
            log_->storeCommitted(core, addr, id);
    }

    static ProtocolHooks defaultHooks_;
    ProtocolHooks *hooks_ = &defaultHooks_;
    StoreLog *log_ = nullptr;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_PROTOCOL_HH
