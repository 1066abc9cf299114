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

Mshr::Mshr(EventQueue &eq, unsigned cores, unsigned entriesPerCore,
           StatsRegistry &stats)
    : eq_(eq), entriesPerCore_(entriesPerCore), cores_(cores),
      fullStalls_(stats.counter("mshr.full_stalls")),
      occupancy_(stats.histogram("mshr.occupancy"))
{
    tsoper_assert(entriesPerCore >= 1, "a core needs at least one MSHR");
    for (PerCore &pc : cores_)
        pc.lines.reserve(entriesPerCore);
}

bool
Mshr::has(CoreId core, LineAddr line) const
{
    const auto &lines = cores_[static_cast<unsigned>(core)].lines;
    return std::find(lines.begin(), lines.end(), line) != lines.end();
}

bool
Mshr::full(CoreId core) const
{
    return cores_[static_cast<unsigned>(core)].lines.size() >=
           entriesPerCore_;
}

bool
Mshr::admit(CoreId core, LineAddr line, bool *claimed)
{
    if (has(core, line))
        return true; // Secondary miss / retry of the in-flight primary.
    if (full(core))
        return false;
    enter(core, line);
    *claimed = true;
    return true;
}

void
Mshr::enter(CoreId core, LineAddr line)
{
    PerCore &pc = cores_[static_cast<unsigned>(core)];
    tsoper_assert(pc.lines.size() < entriesPerCore_, "MSHR overflow");
    tsoper_assert(!has(core, line), "duplicate MSHR entry for line ", line);
    pc.lines.push_back(line);
    occupancy_.add(pc.lines.size());
}

void
Mshr::leave(CoreId core, LineAddr line)
{
    PerCore &pc = cores_[static_cast<unsigned>(core)];
    const auto it = std::find(pc.lines.begin(), pc.lines.end(), line);
    tsoper_assert(it != pc.lines.end(), "MSHR leave without enter: line ",
                  line);
    *it = pc.lines.back();
    pc.lines.pop_back();
    if (!pc.retries.empty())
        eq_.scheduleIn(0, pc.retries.pop());
}

void
Mshr::defer(CoreId core, InlineCallback retry)
{
    fullStalls_.inc();
    cores_[static_cast<unsigned>(core)].retries.push(std::move(retry));
}

std::size_t
Mshr::inFlight(CoreId core) const
{
    return cores_[static_cast<unsigned>(core)].lines.size();
}

} // namespace tsoper
