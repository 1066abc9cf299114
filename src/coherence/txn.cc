#include "coherence/txn.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"

namespace tsoper
{

TxnTable::TxnTable(StatsRegistry &stats)
    : allocs_(stats.counter("dir.txn_allocs")),
      legs_(stats.counter("dir.txn_legs")),
      occupancy_(stats.histogram("dir.txn_occupancy"))
{
}

TxnTable::Id
TxnTable::begin(LineAddr line, CoreId requester, unsigned waits,
                Completion completion)
{
    tsoper_assert(waits >= 1, "transaction with no legs to wait on");
    Id id = entries_.size();
    if (free_.empty()) {
        entries_.emplace_back();
    } else {
        id = free_.back();
        free_.pop_back();
    }
    entries_[id] = Entry{line, requester, waits, 0, std::move(completion)};
    ++open_;
    allocs_.inc();
    occupancy_.add(open_);
    return id;
}

void
TxnTable::legDone(Id id, Cycle at)
{
    tsoper_assert(id < entries_.size() && entries_[id].waits > 0,
                  "leg of unknown transaction ", id);
    Entry &e = entries_[id];
    legs_.inc();
    e.readyAt = std::max(e.readyAt, at);
    if (--e.waits > 0)
        return;
    // Move out before freeing: the completion may open new entries.
    Completion fire = std::move(e.completion);
    const Cycle readyAt = e.readyAt;
    free_.push_back(id);
    --open_;
    fire(readyAt);
}

} // namespace tsoper
