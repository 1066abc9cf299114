/**
 * @file
 * Buffered Strict Persistency (Joshi et al. [22]) and the paper's two
 * stepping-stone variants (§V-B):
 *
 *  - Mode::Bsp        — on MESI, persists *through the LLC*: epochs of
 *    up to bspEpochStores stores, broken early on conflicts
 *    (deadlock-avoidance).  Exhibits both exclusion windows of Fig. 1a:
 *    L1 exclusion (a remote request for a dirty epoch line waits until
 *    the line is written to the LLC) and LLC exclusion (a newer version
 *    enters the LLC only after the older version's NVM persist).
 *  - Mode::BspSlc     — on SLC: multiversioning (version snapshots)
 *    removes the L1 exclusion; persists still go through the LLC.
 *  - Mode::BspSlcAgb  — idealized: epochs persist via an *unbounded*
 *    AGB, removing the LLC exclusion as well.  Differs from TSOPER
 *    only in the huge, statically-sized epochs.
 *
 * Same-address NVM ordering is kept by chaining per-line persists
 * (lineNvmReady_); cross-line completion ordering across ranks is not
 * enforced, a documented approximation (DESIGN.md §1).
 */

#ifndef TSOPER_CORE_BSP_ENGINE_HH
#define TSOPER_CORE_BSP_ENGINE_HH

#include <deque>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coherence/mesi.hh"
#include "coherence/slc.hh"
#include "core/agb.hh"
#include "core/engine.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "noc/message_bus.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tsoper
{

class BspEngine : public PersistEngine
{
  public:
    enum class Mode { Bsp, BspSlc, BspSlcAgb };

    /** @p mesi / @p slc: exactly one non-null, matching @p mode.
     *  @p agb: non-null iff mode is BspSlcAgb. */
    BspEngine(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
              Llc &llc, Nvm &nvm, MesiProtocol *mesi, SlcProtocol *slc,
              Agb *agb, StatsRegistry &stats, Mode mode);

    /** Breaks the deps/dependents cycles a run stopped mid-flight (a
     *  crash) leaves between waiting epochs, so they are freed. */
    ~BspEngine() override;

    // --- ProtocolHooks -------------------------------------------------
    Cycle onDirtyExpose(CoreId owner, LineAddr line, CoreId requester,
                        bool forWrite, Cycle now) override;
    void onDirtyEvict(CoreId owner, LineAddr line, ExposeReason why,
                      Cycle now) override;
    void onStoreCommitted(CoreId core, LineAddr line, Cycle now) override;
    bool dropsInvalidDirty() const override { return true; }
    bool storeMayCommit(CoreId core, LineAddr line) override;
    void addStoreWaiter(CoreId core, LineAddr line,
                        InlineCallback retry) override;

    // --- PersistEngine ---------------------------------------------------
    void onMarker(CoreId core, Cycle now) override;
    void drain(InlineCallback done) override;
    bool quiescent() const override;
    std::unordered_map<LineAddr, LineWords> crashOverlay() const override;

  private:
    struct Epoch
    {
        std::uint64_t uid = 0;
        CoreId core = invalidCore;
        std::vector<LineAddr> order;
        std::unordered_map<LineAddr, LineWords> words; ///< Snapshots.
        std::unordered_set<LineAddr> snapshotted;
        std::unordered_map<LineAddr, Cycle> flushAt; ///< L1->LLC time.
        unsigned storeCount = 0;
        Cycle openedAt = 0; ///< First store's cycle (trace spans).
        bool closed = false;
        bool persisted = false;
        bool persistIssued = false; ///< NVM/AGB phase started.
        unsigned pending = 0; ///< Outstanding NVM writes / AGB lines.
        Agb::AgHandle handle = 0;
        /** Epochs that must persist first (formed at conflicts; always
         *  open -> just-closed, hence acyclic). */
        std::vector<std::shared_ptr<Epoch>> deps;
        std::vector<std::shared_ptr<Epoch>> dependents;
        bool waitingOnDeps = false;
    };
    using EpochPtr = std::shared_ptr<Epoch>;

    Epoch &openEpoch(CoreId core);
    void snapshot(Epoch &e, LineAddr line);
    void closeEpoch(CoreId core, Cycle now);

    /** Schedule the line's L1->LLC write; record flushAt. */
    void flushLineToLlc(Epoch &e, LineAddr line, Cycle earliest);

    /** Start the NVM/AGB phase once all dep epochs have persisted. */
    void tryIssuePersist(const EpochPtr &e, Cycle now);

    void issueNvmWrites(const EpochPtr &e, Cycle now);
    void persistViaAgb(const EpochPtr &e, Cycle now);
    void epochLineDone(const EpochPtr &e, Cycle now);
    void markPersisted(const EpochPtr &e);
    void wakeStoreWaiters(CoreId core);
    void checkDrainDone();

    const SystemConfig &cfg_;
    EventQueue &eq_;
    /** Explicit cross-tile message path (see DESIGN.md, "Message bus
     *  and transaction legs"). */
    MessageBus bus_;
    Llc &llc_;
    Nvm &nvm_;
    MesiProtocol *mesi_;
    SlcProtocol *slc_;
    Agb *agb_;
    Mode mode_;
    unsigned banks_;

    std::vector<std::deque<EpochPtr>> epochs_; ///< Per core, oldest first.
    std::vector<std::unordered_map<LineAddr, EpochPtr>> latest_;
    /** Persist-before deps inherited from an epoch that closed with
     *  nothing to persist: an empty epoch has no durable point of its
     *  own, so its obligations transfer to the core's next epoch. */
    std::vector<std::vector<EpochPtr>> carriedDeps_;
    /** Completion of the last issued NVM persist per line (chains
     *  same-address persists; realizes LLC exclusion). */
    std::unordered_map<LineAddr, Cycle> lineNvmReady_;
    std::uint64_t nextUid_ = 1;
    unsigned outstanding_ = 0;

    struct StoreWaiter
    {
        LineAddr line;
        InlineCallback retry;
    };
    std::vector<std::vector<StoreWaiter>> storeWaiters_;
    bool draining_ = false;
    InlineCallback drainDone_;

    Counter &epochsClosed_;
    Counter &epochBreaks_;
    Counter &persistWb_;
    Counter &l1ExclusionCycles_;
    Counter &llcExclusionCycles_;
    Histogram &epochLines_;
};

} // namespace tsoper

#endif // TSOPER_CORE_BSP_ENGINE_HH
