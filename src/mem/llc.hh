/**
 * @file
 * Shared, banked last-level cache.
 *
 * The LLC is a functional backing store between the private caches and
 * NVM: writebacks install versions here; private-cache misses with no
 * remote valid copy are served from here; capacity evictions of dirty
 * lines write to NVM.  BSP's *LLC exclusion* (Definition 2 of the
 * paper) is enforced by its engine, which holds each line's pending
 * NVM persist (core/bsp_engine.hh).
 */

#ifndef TSOPER_MEM_LLC_HH
#define TSOPER_MEM_LLC_HH

#include <vector>

#include "mem/cache_array.hh"
#include "mem/nvm.hh"
#include "sim/config.hh"
#include "sim/stats.hh"

namespace tsoper
{

class Llc
{
  public:
    Llc(const SystemConfig &cfg, Nvm &nvm, StatsRegistry &stats);

    unsigned
    bankOf(LineAddr line) const
    {
        return static_cast<unsigned>(line) & (banks_ - 1);
    }

    /**
     * Timing of one bank access (tag + data) starting no earlier than
     * @p when; models per-bank occupancy. @return completion cycle.
     */
    Cycle access(LineAddr line, Cycle when);

    bool contains(LineAddr line) const;

    /** Current contents; @p line must be resident. */
    const LineWords &lookup(LineAddr line) const;

    /**
     * Install a version coming down from a private cache (dirty) or up
     * from NVM (clean fill).  May displace a victim; a dirty victim is
     * durably written to NVM (timing charged from @p now).
     */
    void install(LineAddr line, const LineWords &words, bool dirty,
                 Cycle now);

    /** Merge words into a resident line (partial writeback). */
    void merge(LineAddr line, const LineWords &words, bool dirty,
               Cycle now);

    // --- AGB inclusion (§II-B future optimization, implemented) ------
    /**
     * Pin @p line while a version of it sits in the AGB awaiting its
     * NVM write.  Pinned lines are never LLC victims, which (a) makes
     * the LLC inclusive of the AGB so loads never need to search it,
     * and (b) prevents an LLC eviction from racing an in-flight AGB
     * drain to NVM with a newer same-address version.  Pins nest.
     */
    void pinForAgb(LineAddr line);
    void unpinForAgb(LineAddr line);

    bool isPinned(LineAddr line) const;

  private:
    /** A resident line's state, kept in its way. */
    struct Way
    {
        LinePool::Slot words = 0; ///< Contents, in words_.
        unsigned agbPins = 0;
        bool dirty = false;
    };

    Way *find(LineAddr line) { return arrays_[bankOf(line)].find(line); }

    const Way *
    find(LineAddr line) const
    {
        return arrays_[bankOf(line)].find(line);
    }

    unsigned banks_;
    Cycle latency_;
    Cycle occupancy_ = 2;
    Nvm &nvm_;
    std::vector<CacheArray<Way>> arrays_;
    std::vector<Cycle> bankBusyUntil_;
    LinePool words_;
    /** One element per AGB pin of a line not (yet) resident: a line can
     *  be pinned just before persistComplete installs it.  Install
     *  moves the line's pins into its way. */
    std::vector<LineAddr> pendingPins_;
    Counter &hits_;
    Counter &installs_;
    Counter &dirtyEvicts_;
};

} // namespace tsoper

#endif // TSOPER_MEM_LLC_HH
