/**
 * @file
 * Sharing-List Coherence (SLC), the SCI-inspired protocol of §IV.
 *
 * Every cacheline with any private-cache presence has a doubly-linked
 * sharing list of per-cache nodes, ordered by directory serialization:
 * the *head* is the most recent requester (the only place the current
 * version can be written), the *tail* is the oldest unpersisted
 * version and owns the persist token.  The three principles of §IV-A
 * are implemented directly:
 *
 *  1. Non-destructive invalidations — invalidated dirty versions stay
 *     on the list (invalid) until they persist.
 *  2. Multiversioning — a list may hold several same-address versions
 *     across different caches; only the head-most version is valid.
 *  3. Tail-to-head persist — versions persist only at the tail;
 *     persisted (or clean) tails unlink, passing the token headwards.
 *
 * Write permission is granted at link-up (OBS 3: reduced L1 exclusion
 * time); invalidations propagate in the background.
 *
 * Timing model: state commits at directory dispatch (see coherence/
 * protocol.hh), while the timing legs are real timestamped messages:
 * forward requests, data replies and permission grants travel as
 * MessageBus sends whose arrival events fire the requester's
 * completion; memory fills defer the line's serializer slot until the
 * LLC pipe answers (coherence/directory.hh).  Background traffic
 * (teardown notifications, persist writebacks) keeps folded arrival()
 * legs.
 */

#ifndef TSOPER_COHERENCE_SLC_HH
#define TSOPER_COHERENCE_SLC_HH

#include <optional>
#include <unordered_map>
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

class SlcProtocol : public CoherenceProtocol
{
  public:
    SlcProtocol(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
                Llc &llc, Nvm &nvm, StatsRegistry &stats);

    void load(CoreId core, Addr addr, LoadDone done) override;
    void store(CoreId core, Addr addr, StoreId store,
               StoreDone done) override;

    // --- Engine-facing API ------------------------------------------

    bool hasNode(CoreId core, LineAddr line) const;
    bool nodeValid(CoreId core, LineAddr line) const;
    bool nodeDirty(CoreId core, LineAddr line) const;

    /** Sharing-list neighbours (testing/introspection): towards the
     *  tail / towards the head; invalidCore at the ends. */
    CoreId nodeFwd(CoreId core, LineAddr line) const;
    CoreId nodeBwd(CoreId core, LineAddr line) const;

    /**
     * Persist-token view of tailness: true iff no *dirty* (unpersisted)
     * version exists below (core, line)'s node.  Valid clean sharers
     * below a node hold no persist obligation — the token passes
     * through them ("invalidated unmodified tails immediately pass the
     * token"; still-valid persisted versions stay as plain sharers).
     */
    bool nodeIsPersistTail(CoreId core, LineAddr line) const;

    /** This version's contents (node must exist). */
    const LineWords &nodeWords(CoreId core, LineAddr line) const;

    /**
     * The persist of (core, line)'s version completed (it is buffered
     * in the AGB / written through the LLC).  Writes the version to the
     * LLC, then unlinks the node if it is invalid or evicted, passing
     * the persist token; a still-valid node simply becomes clean.
     * The node must be its list's tail (§IV-A principle 3).
     */
    void persistComplete(CoreId core, LineAddr line, Cycle now);

    /**
     * An atomic group that held (core, line) as a *clean* member
     * persisted; the node may unlink if it is invalid or evicted.
     */
    void releaseCleanMember(CoreId core, LineAddr line, Cycle now);

    /** Current occupancy of @p core's eviction buffer (§III-B). */
    unsigned evictionBufferOccupancy(CoreId core) const
    {
        return caches_[static_cast<unsigned>(core)].evicted.size();
    }

    /** @p line's sharing-list length: every node (the persist view)
     *  and the valid ones (the coherence view). */
    struct ListLengths
    {
        unsigned all = 0;
        unsigned valid = 0;
    };

    ListLengths listLengths(LineAddr line) const;

  private:
    struct Node
    {
        CoreId fwd = invalidCore;  ///< Toward the tail (older).
        CoreId bwd = invalidCore;  ///< Toward the head (newer).
        bool valid = true;
        bool dirty = false;
        bool evicted = false;      ///< Lives in the eviction buffer.
        LinePool::Slot words = 0;  ///< This version's contents, in words_.
        Cycle dataReadyAt = 0;     ///< When this copy's data arrives.
    };

    /** A directory entry; mid-teardown (a zombie) while parked in the
     *  directory's eviction buffer after a directory eviction. */
    struct Entry
    {
        CoreId head = invalidCore;
    };

    /** One core's private cache: nodes in their ways, and the §III-B
     *  eviction buffer (footnote 3) where victims are settled and
     *  evicted nodes wait to persist or be revived. */
    struct PrivateCache
    {
        CacheArray<Node> array;
        EvictBuffer<Node> evicted;
    };

    Node *findNode(CoreId core, LineAddr line);
    const Node *findNode(CoreId core, LineAddr line) const;
    Node &node(CoreId core, LineAddr line);
    Entry &entry(LineAddr line);

    unsigned bankOf(LineAddr line) const
    {
        return static_cast<unsigned>(line) & (banks_ - 1);
    }

    /** load()/store() for a request that may already hold an MSHR
     *  register (@p holdsMshr: a parked retry of the primary miss, which
     *  frees the register right before its completion runs). */
    void issueLoad(CoreId core, Addr addr, LoadDone done, bool holdsMshr);
    void issueStore(CoreId core, Addr addr, StoreId store, StoreDone done,
                    bool holdsMshr);

    /** The access, re-issued later by whoever parks it. */
    InlineCallback retryLoad(CoreId core, Addr addr, LoadDone done,
                             bool holdsMshr);
    InlineCallback retryStore(CoreId core, Addr addr, StoreId store,
                              StoreDone done, bool holdsMshr);

    /** Dispatch a miss/upgrade transaction to the directory. */
    void submitTxn(CoreId core, LineAddr line, LineSerializer::Body body,
                   Cycle departAt);

    /** Transaction bodies (run at directory dispatch).  nullopt means
     *  the body deferred: a memory fill holds the line until the LLC
     *  pipe reply frees it via LineSerializer::releaseAt. */
    std::optional<Cycle> loadTxn(CoreId core, Addr addr, LoadDone done,
                                 bool holdsMshr, Cycle t);
    std::optional<Cycle> storeTxn(CoreId core, Addr addr, StoreId store,
                                  StoreDone done, bool holdsMshr, Cycle t);

    /**
     * A transaction whose core's own node is invalid: true if the node
     * must clear first (pending persist / frozen AG) and the caller
     * must park its retry on nodeWaiters_.  Otherwise a stale clean
     * copy is spliced; *relinked is set if it was an AG member (the
     * caller must fire onNodeRelinked after re-creating the node at
     * the head).
     */
    bool ownNodeBlocks(CoreId core, LineAddr line, Cycle t,
                       bool *relinked = nullptr);

    /** Prepend @p core as @p line's new head holding @p words, ready
     *  at @p dataReadyAt, then settle the private-cache victim it
     *  displaced (the new node is linked while the victim's hooks fire). */
    void prependNode(CoreId core, LineAddr line, const LineWords &words,
                     Cycle dataReadyAt, Cycle t);

    /** Move (core, line)'s evicted node back into its private cache. */
    void reviveNode(CoreId core, LineAddr line, Cycle t);

    /**
     * Mark all valid nodes below @p newHead invalid (background inv).
     * @p alreadyExposed names a node whose dirty-expose hook the data
     * path already fired (the old head that supplied the data).
     */
    void invalidateBelow(CoreId newHead, LineAddr line, Cycle t,
                         CoreId alreadyExposed = invalidCore);

    /** Splice (core, line)'s node out of its list and erase it. */
    void unlinkNode(CoreId core, LineAddr line, Cycle t);

    /**
     * A version at/below @p fromCore 's node persisted: fire
     * onBecameTail for each node walking headwards from @p fromCore,
     * stopping after the first dirty node (which now holds the token;
     * everything above it is still blocked).
     */
    void notifyPersistTailUpward(CoreId fromCore, LineAddr line, Cycle t);

    /** Put node @p n for @p line in @p core's array, then settle the
     *  victim it displaced, parked and still findable meanwhile. */
    void insertResident(CoreId core, LineAddr line, const Node &n, Cycle t);

    void handleVictim(CoreId core, LineAddr victim, Cycle t);

    /** Allocate @p line's directory entry, tearing down a victim. */
    void allocateEntry(LineAddr line, Cycle t);

    /** Directory-entry teardown after a directory eviction (§III-B). */
    void teardownEntry(LineAddr victim, const Entry &entry, Cycle t);

    void maybeReleaseEntry(LineAddr line);

    using Waiters =
        std::unordered_map<std::uint64_t, std::vector<InlineCallback>>;

    /** Reschedule (zero-delay) every waiter parked under @p key. */
    void wake(Waiters &waiters, std::uint64_t key);

    void sampleListStats(LineAddr line);

    // --- wiring -------------------------------------------------------
    const SystemConfig &cfg_;
    EventQueue &eq_;
    /** All cross-tile traffic (requests, forwards, data replies,
     *  writebacks) goes through the bus — the explicit message path
     *  (DESIGN.md, "Message bus and transaction legs"). */
    MessageBus bus_;
    Llc &llc_;
    Nvm &nvm_;
    LineSerializer serializer_;
    DirectoryCapacity<Entry> capacity_;
    Mshr mshr_;
    unsigned banks_;
    Cycle dirLatency_ = 6;

    std::vector<PrivateCache> caches_; ///< Per core.
    LinePool words_;                   ///< Every node's contents.

    /** Accesses blocked on the owning core's pending node. */
    Waiters nodeWaiters_;
    /** Transactions blocked on a zombie entry teardown, by line. */
    Waiters zombieWaiters_;

    // --- stats ---------------------------------------------------------
    Counter &hits_;
    Counter &misses_;
    Counter &upgrades_;
    Counter &coherenceWb_;
    Histogram &persistListLen_;
    Histogram &coherenceListLen_;
    Histogram &evictBufHist_;

    static std::uint64_t
    waiterKey(CoreId core, LineAddr line)
    {
        return (static_cast<std::uint64_t>(core) << 52) ^ line;
    }
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_SLC_HH
