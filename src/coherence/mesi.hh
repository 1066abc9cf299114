/**
 * @file
 * Conventional directory-based MESI protocol.
 *
 * Serves two roles in the reproduction:
 *  1. the conventional baseline the paper quotes SLC's ~3% overhead
 *     against (§V "Systems"; the `baseline-mesi` engine);
 *  2. the substrate BSP persists through (Joshi et al. persist via the
 *     LLC, which imposes single-version semantics).
 *
 * Unlike SLC, the directory here is *blocking*: a transaction occupies
 * its line until the requester has data and acknowledgements, which —
 * combined with BSP's flush-before-handover (ProtocolHooks::
 * onDirtyExpose) — produces the L1 exclusion time of Fig. 1a.
 *
 * Blocking is implemented event-driven: state commits at dispatch, the
 * timing legs (forwards, invalidations + acks, data replies) travel as
 * real messages, and a TxnTable entry holds the line's serializer slot
 * until the last leg lands (LineSerializer::releaseAt).
 */

#ifndef TSOPER_COHERENCE_MESI_HH
#define TSOPER_COHERENCE_MESI_HH

#include <vector>

#include "coherence/directory.hh"
#include "coherence/protocol.hh"
#include "coherence/txn.hh"
#include "mem/cache_array.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "noc/message_bus.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"

namespace tsoper
{

class MesiProtocol : public CoherenceProtocol
{
  public:
    MesiProtocol(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
                 Llc &llc, Nvm &nvm, StatsRegistry &stats);

    void load(CoreId core, Addr addr, LoadDone done) override;
    void store(CoreId core, Addr addr, StoreId store,
               StoreDone done) override;

    // --- BSP engine API -----------------------------------------------

    /** Is (core, line) in state M? */
    bool isModified(CoreId core, LineAddr line) const;

    /** Version contents of (core, line); the node must exist. */
    const LineWords &lineWords(CoreId core, LineAddr line) const;

  private:
    enum class St { I, S, E, M };

    struct Node
    {
        St st = St::I;
        LinePool::Slot words = 0; ///< This copy's contents, in words_.
        Cycle dataReadyAt = 0;
    };

    struct Entry
    {
        CoreId owner = invalidCore;
        std::uint64_t sharers = 0;
    };

    static std::uint64_t bit(CoreId c) { return 1ull << c; }

    unsigned bankOf(LineAddr line) const
    {
        return static_cast<unsigned>(line) & (banks_ - 1);
    }

    Node *findNode(CoreId core, LineAddr line);
    const Node *findNode(CoreId core, LineAddr line) const;
    Node &node(CoreId core, LineAddr line);
    Entry &entry(LineAddr line);

    void submitTxn(CoreId core, LineAddr line, LineSerializer::Body body,
                   Cycle departAt);

    /** store() for a request that may already hold an MSHR register
     *  (@p holdsMshr: a parked retry of the primary miss, which frees
     *  the register right before its completion runs). */
    void issueStore(CoreId core, Addr addr, StoreId store, StoreDone done,
                    bool holdsMshr);

    /** Transaction bodies (run at directory dispatch).  nullopt means
     *  the body deferred: the line is held until the last timing leg
     *  lands and finishTxn frees it.  Memory fills charge the LLC bank
     *  at dispatch and send their data leg at its completion cycle
     *  (after an NVM read on an LLC miss). */
    std::optional<Cycle> loadTxn(CoreId core, Addr addr, LoadDone done,
                                 bool holdsMshr, Cycle t);
    std::optional<Cycle> storeTxn(CoreId core, Addr addr, StoreId store,
                                  StoreDone done, bool holdsMshr, Cycle t);

    /** Retire a deferred transaction whose data reached @p core at
     *  @p at: final dataReadyAt, unpin the directory entry and free the
     *  line's serializer slot then. */
    void finishTxn(CoreId core, LineAddr line, Cycle at);

    /** Invalidate every sharer but @p requester (state commits now);
     *  each inv travels as a message and its ack (sharer -> requester)
     *  reports a leg of @p txn. */
    void sendInvalidations(LineAddr line, CoreId requester, Cycle t,
                           TxnTable::Id txn);

    /** Give @p core a node for @p line in state @p st holding @p words,
     *  then settle the victim it displaced: while the victim's hooks
     *  fire, the new node is resident and the victim still findable. */
    void fillNode(CoreId core, LineAddr line, St st, const LineWords &words,
                  Cycle t);

    /** Remove (core, line)'s node, if any, and free its contents. */
    void dropNode(CoreId core, LineAddr line);

    void handleVictim(CoreId core, LineAddr victim, Cycle t);

    /** Allocate @p line's directory entry, tearing down a victim. */
    void allocateEntry(LineAddr line, Cycle t);
    void teardownEntry(LineAddr victim, const Entry &entry, Cycle t);
    void maybeReleaseEntry(LineAddr line);

    const SystemConfig &cfg_;
    EventQueue &eq_;
    /** Explicit cross-tile message path (see DESIGN.md, "Message bus
     *  and transaction legs"). */
    MessageBus bus_;
    Llc &llc_;
    Nvm &nvm_;
    LineSerializer serializer_;
    DirectoryCapacity<Entry> capacity_;
    TxnTable txns_;
    Mshr mshr_;
    unsigned banks_;
    Cycle dirLatency_ = 6;

    std::vector<CacheArray<Node>> arrays_; ///< Per core.
    /** The private-cache victim being settled by handleVictim. */
    struct Victim
    {
        CoreId core = invalidCore;
        LineAddr line = 0;
        Node node;
    } victim_;
    LinePool words_; ///< Every node's contents.

    Counter &hits_;
    Counter &misses_;
    Counter &upgrades_;
    Counter &coherenceWb_;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_MESI_HH
