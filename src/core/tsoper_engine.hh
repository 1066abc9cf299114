/**
 * @file
 * The TSOPER persistency engine (§II-§IV): atomic groups formed in the
 * private caches, ordered by the SLC sharing lists, persisted through
 * the Atomic Group Buffer.
 *
 * Event flow:
 *  - stores commit  -> the open AG gains a dirty member;
 *  - reads of remote dirty lines -> the open AG gains a clean member
 *    encoding the incoming pb dependence (§III-A);
 *  - exposures (remote request / eviction / dir eviction / size cap /
 *    marker) -> the open AG freezes;
 *  - a frozen AG whose members are all sharing-list tails is ready:
 *    it requests AGB space (allocation order = pb order), streams its
 *    dirty lines, and passes each line's persist token as it buffers;
 *  - a fully buffered AG retires: clean members release, blocked
 *    stores wake.
 *
 * Deadlock freedom is inherited from the design (§III-C): pb edges
 * follow logical time, and all incoming edges of an AG precede its
 * outgoing ones because the AG freezes before servicing the first
 * request for a modified line.
 */

#ifndef TSOPER_CORE_TSOPER_ENGINE_HH
#define TSOPER_CORE_TSOPER_ENGINE_HH

#include <vector>

#include "coherence/slc.hh"
#include "core/agb.hh"
#include "core/atomic_group.hh"
#include "core/engine.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tsoper
{

class TsoperEngine : public PersistEngine
{
  public:
    TsoperEngine(const SystemConfig &cfg, EventQueue &eq,
                 SlcProtocol &slc, Agb &agb, StatsRegistry &stats);

    // --- ProtocolHooks -------------------------------------------------
    Cycle onDirtyExpose(CoreId owner, LineAddr line, CoreId requester,
                        bool forWrite, Cycle now) override;
    void onReadDependence(CoreId reader, LineAddr line,
                          Cycle now) override;
    void onDirtyEvict(CoreId owner, LineAddr line, ExposeReason why,
                      Cycle now) override;
    void onStoreCommitted(CoreId core, LineAddr line, Cycle now) override;
    void onBecameTail(CoreId core, LineAddr line, Cycle now) override;
    bool dropsInvalidDirty() const override { return false; }
    bool lineInUnpersistedAg(CoreId core, LineAddr line) const override;
    bool lineInFrozenAg(CoreId core, LineAddr line) const override;
    void onNodeRelinked(CoreId core, LineAddr line, Cycle now) override;
    bool storeMayCommit(CoreId core, LineAddr line) override;
    void addStoreWaiter(CoreId core, LineAddr line,
                        InlineCallback retry) override;

    // --- PersistEngine ---------------------------------------------------
    void onMarker(CoreId core, Cycle now) override;
    void drain(InlineCallback done) override;
    bool quiescent() const override;
    std::unordered_map<LineAddr, LineWords> crashOverlay() const override;

    // --- Introspection ---------------------------------------------------
    const AgManager &manager(CoreId core) const
    {
        return *mgrs_[static_cast<unsigned>(core)];
    }

  protected:
    /** Freeze the AG holding @p line (if open) and start its persist. */
    void freezeGroupOf(CoreId core, LineAddr line, FreezeReason why,
                       Cycle now);

    /** Publish the freeze to the structured trace bus. */
    void noteFrozen(CoreId core, const AtomicGroup &ag, FreezeReason why,
                    Cycle now);

    /** Subclass hook (STW stalls the world here). */
    virtual void
    onFroze(CoreId core, const AtomicGroup &ag, FreezeReason why,
            Cycle now)
    {
        (void)core; (void)ag; (void)why; (void)now;
    }

    /** Subclass hook after an AG fully retires. */
    virtual void
    onRetired(CoreId core, Cycle now)
    {
        (void)core; (void)now;
    }

    /** Move the persist pipeline of @p core forward. */
    void advance(CoreId core);

    void onGranted(CoreId core, AgId id, Cycle now);
    void onLineBuffered(CoreId core, AgId id, LineAddr line, Cycle now);
    void maybeRetire(CoreId core);
    void wakeStoreWaiters(CoreId core);
    void checkDrainDone();

    AtomicGroup *findAg(CoreId core, AgId id);

    /** Any frozen AG not yet fully buffered, on any core? */
    bool anyFrozenUnbuffered() const;

    const SystemConfig &cfg_;
    EventQueue &eq_;
    SlcProtocol &slc_;
    Agb &agb_;
    std::vector<std::unique_ptr<AgManager>> mgrs_;

    struct StoreWaiter
    {
        LineAddr line;
        InlineCallback retry;
    };
    std::vector<std::vector<StoreWaiter>> storeWaiters_;

    bool draining_ = false;
    InlineCallback drainDone_;

    Counter &agsPersisted_;
    Counter &freezeRemote_;
    Counter &freezeEvict_;
    Counter &freezeCap_;
    Counter &storeBlocks_;
    Histogram &agStores_;     ///< Stores per AG (Fig. 15 histogram).
    TimeSeries &agStoresT_;   ///< (cycle, stores) per freeze (Fig. 15).
};

} // namespace tsoper

#endif // TSOPER_CORE_TSOPER_ENGINE_HH
