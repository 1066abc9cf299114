/**
 * @file
 * Persistency-engine interface.
 *
 * A PersistEngine realizes one of the paper's evaluated persistency
 * mechanisms on top of a coherence protocol.  It receives protocol
 * events through the ProtocolHooks base (called at serialization
 * instants), gates the cores' store buffers and sync operations, and
 * owns the machinery that moves versions into the persistent domain
 * (AGB and/or NVM).
 *
 * Implementations: NoPersistEngine (baseline), TsoperEngine, StwEngine,
 * BspEngine (covering BSP, BSP+SLC, BSP+SLC+AGB), HwRpEngine.
 */

#ifndef TSOPER_CORE_ENGINE_HH
#define TSOPER_CORE_ENGINE_HH

#include <unordered_map>

#include "coherence/protocol.hh"
#include "mem/nvm.hh"
#include "sim/types.hh"

namespace tsoper
{

class PersistEngine : public ProtocolHooks
{
  public:
    ~PersistEngine() override = default;

    // --- Core-side gating (storeMayCommit / addStoreWaiter come from
    // ProtocolHooks: the protocol re-checks them at serialization) ---

    /** STW: is @p core stalled by a world-stop? */
    virtual bool
    coreStalled(CoreId core) const
    {
        (void)core;
        return false;
    }

    /** Register @p resume to run when the world-stop ends. */
    virtual void addStallWaiter(InlineCallback resume);

    /** May @p core complete a sync operation (HW-RP queue backpressure)? */
    virtual bool
    syncMayProceed(CoreId core)
    {
        (void)core;
        return true;
    }

    virtual void addSyncWaiter(CoreId core, InlineCallback retry);

    /** @p core executed a synchronization operation (SFR boundary). */
    virtual void
    onSync(CoreId core, Cycle now)
    {
        (void)core; (void)now;
    }

    /**
     * Identity of a synchronization operation, delivered after the SFR
     * boundary it caused.  HW-RP uses it to carry persist ordering
     * across threads: a release publishes its pre-boundary batch's
     * completion on the lock; an acquire (or barrier resume) adopts it,
     * so batches ordered by synchronization persist in that order.
     */
    enum class SyncEvent
    {
        LockAcquire,
        LockRelease,
        BarrierArrive,
        BarrierResume,
    };

    virtual void
    onSyncEvent(CoreId core, Cycle now, SyncEvent event, unsigned id)
    {
        (void)core; (void)now; (void)event; (void)id;
    }

    /** @p core executed a software epoch marker store (§II-D). */
    virtual void
    onMarker(CoreId core, Cycle now)
    {
        (void)core; (void)now;
    }

    // --- Run control ----------------------------------------------------

    /**
     * All cores finished; push every outstanding version into the
     * persistent domain.  @p done runs when the engine is quiescent.
     */
    virtual void
    drain(InlineCallback done)
    {
        done();
    }

    /** Is all persistency work retired (post-drain)? */
    virtual bool quiescent() const { return true; }

    // --- Crash semantics ----------------------------------------------

    /**
     * Contents of the persistent domain that have not yet reached NVM
     * at the current instant: for AGB engines, the committed prefix of
     * buffered atomic groups in allocation order (§II-B).  Applied over
     * the NVM image to reconstruct the durable state after a crash.
     */
    virtual std::unordered_map<LineAddr, LineWords>
    crashOverlay() const
    {
        return {};
    }
};

/** The baseline: coherence only, nothing persists. */
class NoPersistEngine : public PersistEngine
{
};

} // namespace tsoper

#endif // TSOPER_CORE_ENGINE_HH
