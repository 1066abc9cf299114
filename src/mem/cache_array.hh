/**
 * @file
 * Generic set-associative tag array with LRU replacement and pinning.
 *
 * The array tracks only presence/recency of cachelines; protocol and
 * persistency metadata (state, sharing-list pointers, AG membership,
 * version contents) are kept by the owning controller, keyed by line
 * address.  Pinned lines are never chosen as victims — used for lines
 * whose atomic group is mid-persist.
 */

#ifndef TSOPER_MEM_CACHE_ARRAY_HH
#define TSOPER_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace tsoper
{

class CacheArray
{
  public:
    /** Outcome of an insert() call. */
    struct Insert
    {
        bool hit = false;        ///< Line was already present.
        bool evicted = false;    ///< A victim was displaced.
        bool noSpace = false;    ///< Set full of pinned lines; caller
                                 ///< must stall and retry.
        LineAddr victim = 0;     ///< Valid iff evicted.
    };

    /**
     * @param sets      number of sets (power of two)
     * @param ways      associativity
     * @param setShift  line-address bits to skip when indexing sets —
     *                  used by banked structures whose low line bits
     *                  select the bank.
     */
    CacheArray(unsigned sets, unsigned ways, unsigned setShift = 0);

    bool contains(LineAddr line) const;

    /** Refresh recency of @p line (must be present). */
    void touch(LineAddr line);

    /**
     * Ensure @p line is resident, evicting the LRU unpinned line of its
     * set if needed.  Recency of @p line is refreshed.
     */
    Insert insert(LineAddr line);

    /** Remove @p line if present. @return true if it was present. */
    bool erase(LineAddr line);

    /** Pin/unpin @p line (must be present). */
    void setPinned(LineAddr line, bool pinned);

    bool isPinned(LineAddr line) const;

    /** Number of resident lines. */
    std::size_t size() const { return population_; }

    unsigned sets() const { return sets_; }
    unsigned ways() const { return ways_; }

    /** Invoke @p fn for every resident line. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        for (const Entry &e : entries_) {
            if (e.valid)
                fn(e.line);
        }
    }

  private:
    struct Entry
    {
        LineAddr line = 0;
        bool valid = false;
        bool pinned = false;
        std::uint64_t lastUse = 0;
    };

    unsigned setOf(LineAddr line) const
    {
        return static_cast<unsigned>(line >> setShift_) & (sets_ - 1);
    }

    Entry *find(LineAddr line);
    const Entry *find(LineAddr line) const;

    unsigned sets_;
    unsigned ways_;
    unsigned setShift_;
    std::vector<Entry> entries_; ///< sets_ x ways_, row-major.
    std::uint64_t useClock_ = 0;
    std::size_t population_ = 0;
};

} // namespace tsoper

#endif // TSOPER_MEM_CACHE_ARRAY_HH
