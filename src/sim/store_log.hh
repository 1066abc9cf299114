/**
 * @file
 * Execution recording for crash-consistency checking.
 *
 * The log captures, at coherence-serialization order, everything the
 * TSO-cut checker needs:
 *   - per-core program order of stores (implicit in StoreId sequence);
 *   - per-word coherence order (the chain of stores to each word);
 *   - reads-from dependencies: if a store is program-ordered after a
 *     load that observed a remote store, the observed store must
 *     persist before it under strict persistency;
 *   - per-core SFR indices (for checking HW-RP's relaxed model).
 *
 * Recording is optional (SystemConfig::recordStores) and on in every
 * checked run, crash-audit's cells included, so it allocates nothing
 * per store: records sit in one array per core indexed by sequence
 * number (stores commit in program order), reads-from predecessors in
 * one flat pool, and each commit appends its id to one commit-order
 * array.  The per-word chains are not kept while the machine runs; the
 * first query after a commit builds them from the commit-order array
 * into flat arrays (docs/perf.md, "Recording stores").
 */

#ifndef TSOPER_SIM_STORE_LOG_HH
#define TSOPER_SIM_STORE_LOG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "sim/fifo.hh"
#include "sim/types.hh"

namespace tsoper
{

class StoreLog
{
  public:
    struct Record
    {
        StoreId id = invalidStore;
        Addr addr = 0;
        std::uint32_t wordChainIndex = 0; ///< Position in the word chain.
        std::uint32_t sfrIndex = 0;       ///< Core's SFR at commit time.
        std::uint32_t rfBegin = 0; ///< First rf predecessor in the pool.
        std::uint32_t rfCount = 0;
    };

    explicit StoreLog(unsigned numCores);

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    /**
     * A load by @p core observed @p value (invalidStore = untouched).
     * Called by the core at load completion; the observed stores become
     * reads-from predecessors of the core's next issued store.
     */
    void loadObserved(CoreId core, Addr addr, StoreId value);

    /**
     * Store @p id entered @p core's store buffer (the program-order
     * point): pending observed stores attach to it here.
     */
    void storeIssued(CoreId core, StoreId id);

    /** A store committed at the coherence-serialization instant. */
    void storeCommitted(CoreId core, Addr addr, StoreId id);

    /** @p core crossed an SFR boundary (sync operation). */
    void sfrBoundary(CoreId core);

    // --- Checker access ------------------------------------------------
    // The first query after a commit builds the word-chain index, which
    // also fills each record's wordChainIndex.  The index is a cache
    // behind const accessors: a log is read by the thread that runs its
    // System.

    const Record *find(StoreId id) const;

    /** Remote stores observed by loads program-ordered before @p rec
     *  (its reads-from predecessors), in observation order. */
    std::span<const StoreId>
    rfPreds(const Record &rec) const
    {
        return {rfPool_.data() + rec.rfBegin, rec.rfCount};
    }

    /** Total order of stores to the word containing @p addr. */
    std::span<const StoreId> wordChain(Addr addr) const;

    /** Per-core store count (program-order sequence length). */
    std::uint64_t storesOf(CoreId core) const;

    std::uint64_t totalStores() const { return commitOrder_.size(); }

  private:
    /** rf predecessors staged at issue: a pool range, consumed when
     *  store @c id commits. */
    struct Staged
    {
        StoreId id;
        std::uint32_t begin;
        std::uint32_t count;
    };

    /** One open-addressing slot of the word table. */
    struct WordSlot
    {
        Addr word = 0;
        std::uint32_t chain = noChain; ///< Dense word number.
    };

    static constexpr std::uint32_t noChain = ~0u;

    static Addr wordAddr(Addr a) { return a >> wordShift; }

    /** Build the word chains when commits arrived since the last build. */
    void
    ensureIndex() const
    {
        if (indexed_ != commitOrder_.size())
            buildIndex();
    }

    void buildIndex() const;

    /** The table slot holding @p word, or the empty slot it would take. */
    WordSlot &wordSlot(Addr word) const;

    Record &recordOf(StoreId id) const;

    bool enabled_ = true;
    /** Per core, indexed by sequence number.  Mutable: the index build
     *  fills wordChainIndex. */
    mutable std::vector<std::vector<Record>> records_;
    std::vector<StoreId> commitOrder_;
    std::vector<StoreId> rfPool_;
    std::vector<std::uint32_t> perCoreSfr_;
    /** Stores observed by loads since each core's last issued store. */
    std::vector<std::vector<StoreId>> pendingRf_;
    /** Per core, in issue order, which is commit order. */
    std::vector<Fifo<Staged>> staged_;

    // Word-chain index over commitOrder_[0, indexed_).
    mutable std::size_t indexed_ = 0;
    mutable std::vector<WordSlot> words_; ///< Power-of-two table.
    /** Chain w is chains_[chainBegin_[w], chainBegin_[w + 1]). */
    mutable std::vector<std::uint32_t> chainBegin_;
    mutable std::vector<StoreId> chains_;
};

} // namespace tsoper

#endif // TSOPER_SIM_STORE_LOG_HH
