/**
 * @file
 * The Atomic Group Buffer (§II-B/C): a power-backed SRAM persist
 * buffer in parallel to the LLC that makes atomic groups durable.
 *
 * Organization (SystemConfig::agbDistributed):
 *  - distributed: one slice per memory channel; an AG's lines map to
 *    slices by address.  A centralized arbiter reserves space in every
 *    needed slice in one step (two-phase allocate/complete ingress,
 *    Fig. 5) and grants requests in FIFO order.
 *  - centralized: a single circular buffer (Fig. 4).
 *
 * Ingress: space for the whole AG is reserved at allocation; the
 * owning L1 then streams lines in any order.  Egress: consecutive
 * fully-buffered AGs from the FIFO head form an atomic *super group*
 * whose lines drain to the memory controllers in any order, except
 * that same-address lines keep FIFO order (they share a slice/rank and
 * are issued in allocation order).
 *
 * Crash semantics: the committed prefix — every AG ahead of the first
 * incomplete one — is durable; everything else is discarded.  This is
 * the conservative reading of the paper's super-group rule (see
 * DESIGN.md §4); it is what guarantees that an AG never becomes
 * durable before the AGs it depends on.
 */

#ifndef TSOPER_CORE_AGB_HH
#define TSOPER_CORE_AGB_HH

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "noc/message_bus.hh"
#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

class Agb
{
  public:
    using AgHandle = std::uint64_t;
    /** Grant and line-buffered callbacks: they ride in an AGB event. */
    using Done = InlineFunction<void(Cycle), 56>;

    Agb(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh, Nvm &nvm,
        Llc &llc, StatsRegistry &stats);

    /**
     * Request space for an atomic group of @p lines (its dirty
     * cachelines; duplicates are not allowed).  Requests are granted in
     * FIFO order once every needed slice has room; @p granted fires at
     * the grant instant.  An AG larger than the AGB capacity is fatal
     * (the hard AG size cap prevents it).
     *
     * @p auditTag names the group in the structured trace / persist
     * audit (trace::groupTag); 0 falls back to the returned handle.
     */
    AgHandle requestAllocation(CoreId from, std::vector<LineAddr> lines,
                               Done granted, std::uint64_t auditTag = 0);

    /**
     * Stream one line of a granted AG into its slice. @p done fires
     * when the line is in the persistent domain (the persist token may
     * then pass, §IV-B).  When the last line of an AG is buffered the
     * AG completes and the committed prefix advances.  The AGB holds
     * @p words from issue on, as the slice's ingress buffer would.
     */
    void bufferLine(AgHandle h, LineAddr line, const LineWords &words,
                    Done done);

    /** Durable-but-undrained contents at this instant (crash overlay),
     *  in allocation order. */
    std::vector<std::pair<LineAddr, LineWords>> crashOverlay() const;

    /** No buffered AGs and no waiting allocations. */
    bool quiescent() const;

    /** Run @p fn once quiescent (immediately if already). */
    void notifyQuiescent(InlineCallback fn);

    unsigned sliceCount() const { return slices_; }

  private:
    struct AgRec
    {
        AgHandle handle = 0;
        std::uint64_t auditTag = 0;
        CoreId from = invalidCore;
        std::vector<LineAddr> lines;
        std::vector<unsigned> sliceNeeds;
        /** Contents of every issued line (durable once it lands). */
        std::unordered_map<LineAddr, LineWords> buffered;
        unsigned remaining = 0;    ///< Lines not yet buffered.
        unsigned undrained = 0;    ///< Lines not yet written to NVM.
        bool granted = false;
        bool complete = false;
        bool drainIssued = false;
        Done grantedCb;
    };

    unsigned
    sliceOf(LineAddr line) const
    {
        return distributed_ ? nvm_.rankOf(line) : 0;
    }

    bool fits(const AgRec &ag) const;
    void tryGrant();
    void grant(AgRec &ag);
    void advanceCommitted();
    void drainAg(AgRec &ag);
    void maybeRetire(AgHandle h);
    void checkQuiescent();

    const SystemConfig &cfg_;
    EventQueue &eq_;
    /** Explicit cross-tile message path (see DESIGN.md, "Message bus
     *  and transaction legs"). */
    MessageBus bus_;
    Nvm &nvm_;
    Llc &llc_;
    bool distributed_;
    bool unbounded_;
    unsigned slices_;
    unsigned sliceCapacity_;
    int arbiterNode_;

    std::unordered_map<AgHandle, AgRec> ags_;
    std::deque<AgHandle> allocQueue_;   ///< FIFO of ungranted requests.
    std::deque<AgHandle> fifo_;         ///< Granted AGs, allocation order.
    std::size_t committedPrefix_ = 0;   ///< fifo_ index of first
                                        ///< non-drain-issued AG.
    std::vector<unsigned> sliceUsed_;
    std::vector<Cycle> slicePortBusy_;
    AgHandle nextHandle_ = 1;
    std::vector<InlineCallback> quiescentWaiters_;

    Counter &agsAllocated_;
    Counter &linesBuffered_;
    Counter &persistWb_;
    Counter &allocStallCycles_;
    Histogram &occupancyHist_;
};

} // namespace tsoper

#endif // TSOPER_CORE_AGB_HH
