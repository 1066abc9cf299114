/**
 * @file
 * HW-RP: the paper's hardware relaxed-persistency comparison point
 * (§V "Systems").  Persistency at synchronization-free-region (SFR)
 * granularity:
 *
 *  - within an SFR, persists of the region's dirty cachelines are
 *    completely unordered;
 *  - at a synchronization operation (SFR boundary) the region's dirty
 *    lines are queued for persist; the next region's persists are
 *    ordered after them (persist order across synchronization);
 *  - evictions of dirty lines are spontaneous persists;
 *  - the core never stalls at a sync: the persist queue is unbounded
 *    (DESIGN.md §6), and only the WPQ below it has a depth.
 *
 * Durability model: like every system in the paper (§II, "buffered
 * persists are considered committed to NVM even in the event of a
 * crash"), a line is durable once it enters the memory controller's
 * power-backed write-pending queue (WPQ); the 360-cycle NVM write
 * drains behind it.  Cross-SFR ordering is therefore enforced on WPQ
 * *entry* times, which is what lets HW-RP run at baseline speed.
 *
 * Coalescing happens only within one SFR, so sync-heavy applications
 * persist the same lines over and over — the source of HW-RP's higher
 * persist traffic in Fig. 14 and of the SFR-size behaviour of Fig. 15.
 */

#ifndef TSOPER_CORE_HWRP_ENGINE_HH
#define TSOPER_CORE_HWRP_ENGINE_HH

#include <deque>
#include <unordered_set>
#include <vector>

#include "coherence/slc.hh"
#include "core/engine.hh"
#include "mem/nvm.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tsoper
{

class HwRpEngine : public PersistEngine
{
  public:
    HwRpEngine(const SystemConfig &cfg, EventQueue &eq, SlcProtocol &slc,
               Nvm &nvm, StatsRegistry &stats);

    // --- ProtocolHooks -------------------------------------------------
    Cycle onDirtyExpose(CoreId owner, LineAddr line, CoreId requester,
                        bool forWrite, Cycle now) override;
    void onDirtyEvict(CoreId owner, LineAddr line, ExposeReason why,
                      Cycle now) override;
    void onStoreCommitted(CoreId core, LineAddr line, Cycle now) override;
    bool dropsInvalidDirty() const override { return true; }

    // --- PersistEngine ---------------------------------------------------
    void onSync(CoreId core, Cycle now) override;
    void onSyncEvent(CoreId core, Cycle now, SyncEvent event,
                     unsigned id) override;
    void drain(InlineCallback done) override;
    bool quiescent() const override;
    std::unordered_map<LineAddr, LineWords> crashOverlay() const override;

  private:
    void flushSfr(CoreId core, Cycle now);
    void lineDone(LineAddr line);

    /**
     * Enqueue one line into its rank's WPQ, no earlier than
     * @p earliest.  @return the WPQ-entry cycle (= durability point);
     * the NVM write is issued behind it.
     *
     * @p auditTag names the line's persist group in the structured
     * trace; @p batched marks lines of an SFR flush batch (spontaneous
     * eviction persists are unordered singletons).
     */
    Cycle persistLine(CoreId core, LineAddr line, const LineWords &words,
                      Cycle earliest, std::uint64_t auditTag,
                      bool batched);

    /** A batched line entered the WPQ: advance the batch audit. */
    void onBatchEntry(CoreId core, std::uint64_t tag);
    void finishBatch(CoreId core, std::uint64_t tag);

    const SystemConfig &cfg_;
    EventQueue &eq_;
    SlcProtocol &slc_;
    Nvm &nvm_;

    std::vector<std::unordered_set<LineAddr>> sfrDirty_; ///< Per core.
    std::vector<std::uint64_t> sfrStoreCount_;
    std::vector<Cycle> batchDoneAt_;     ///< Previous batch completion.
    /** Persist clocks carried across threads by synchronization: a
     *  release/arrival publishes its batch completion; an acquire or
     *  barrier resume adopts it. */
    std::unordered_map<unsigned, Cycle> lockClock_;
    std::unordered_map<unsigned, Cycle> barrierClock_;
    /** Trace-audit shadow state: SFR batch numbering, the batch behind
     *  each sync clock, and per-batch WPQ-entry accounting (populated
     *  only while the persist trace category is enabled). */
    std::vector<std::uint64_t> batchSeq_;
    std::vector<std::uint64_t> spontSeq_;
    std::vector<std::uint64_t> lastBatchTag_;
    std::unordered_map<unsigned, std::uint64_t> lockClockTag_;
    std::unordered_map<unsigned, std::uint64_t> barrierClockTag_;
    struct BatchAudit
    {
        unsigned pending = 0; ///< Lines not yet in the WPQ.
        unsigned lines = 0;
        Cycle maxEntry = 0;
        bool closed = false;
    };
    std::vector<std::unordered_map<std::uint64_t, BatchAudit>>
        batchAudit_;
    /** Per-rank WPQ modelling: entry port occupancy and the completion
     *  history used to bound in-flight entries to the queue depth. */
    std::vector<Cycle> wpqPortBusy_;
    std::vector<std::deque<Cycle>> wpqCompletions_;
    /** Durable-at-entry lines whose NVM write has not completed. */
    std::unordered_map<LineAddr, LineWords> wpqContents_;
    std::unordered_map<LineAddr, unsigned> wpqPendingCount_;
    unsigned outstanding_ = 0; ///< Queued persist lines, all cores.
    bool draining_ = false;
    InlineCallback drainDone_;

    Counter &persistWb_;
    Counter &spontaneous_;
    Counter &sfrCount_;
    Histogram &sfrSizeHist_;
    Histogram &sfrStoresHist_;
    TimeSeries &sfrStoresT_; ///< (cycle, stores) per SFR (Fig. 15).
};

} // namespace tsoper

#endif // TSOPER_CORE_HWRP_ENGINE_HH
