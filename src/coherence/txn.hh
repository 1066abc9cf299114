/**
 * @file
 * Multi-message transaction bookkeeping for the decomposed directory
 * protocols (DESIGN.md, "Message bus and transaction legs").
 *
 * TxnTable holds home-side transaction entries.  A directory bank that
 * decomposes a request into several message legs (invalidations
 * expecting acks, a data fetch, a permission grant) opens an entry
 * with the number of outstanding legs; each reply folds its arrival
 * cycle into the entry, and the completion fires — with the maximum
 * over all legs — when the last one lands.
 */

#ifndef TSOPER_COHERENCE_TXN_HH
#define TSOPER_COHERENCE_TXN_HH

#include <cstdint>
#include <vector>

#include "sim/callback.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

class TxnTable
{
  public:
    using Id = std::uint64_t;
    /** Runs when the last leg lands, with the fold (max) of all leg
     *  cycles — which equals the current cycle, since legs arrive in
     *  event order.  Sized for a protocol closure holding a StoreDone. */
    using Completion = InlineFunction<void(Cycle), 72>;

    explicit TxnTable(StatsRegistry &stats);

    /** Open an entry waiting on @p waits legs (>= 1). */
    Id begin(LineAddr line, CoreId requester, unsigned waits,
             Completion completion);

    /** One leg of @p id finished at @p at; fires the completion (and
     *  retires the entry) when the wait count reaches zero. */
    void legDone(Id id, Cycle at);

    /** Entries currently in flight (bounded by line serialization, not
     *  by the address footprint; asserted in test_directory). */
    std::size_t open() const { return open_; }

  private:
    struct Entry
    {
        LineAddr line = 0;
        CoreId requester = invalidCore;
        unsigned waits = 0; ///< 0 = free slot.
        Cycle readyAt = 0;
        Completion completion;
    };

    /** Slots indexed by Id; retired slots are reused (free_). */
    std::vector<Entry> entries_;
    std::vector<Id> free_;
    std::size_t open_ = 0;
    Counter &allocs_;
    Counter &legs_;
    Histogram &occupancy_;
};

} // namespace tsoper

#endif // TSOPER_COHERENCE_TXN_HH
