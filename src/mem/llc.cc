#include "mem/llc.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

Llc::Llc(const SystemConfig &cfg, Nvm &nvm, StatsRegistry &stats)
    : banks_(cfg.llcBanks), latency_(cfg.llcLatency), nvm_(nvm),
      bankBusyUntil_(cfg.llcBanks, 0),
      hits_(stats.counter("llc.accesses")),
      installs_(stats.counter("llc.installs")),
      dirtyEvicts_(stats.counter("llc.dirty_evictions"))
{
    const unsigned setShift = [&] {
        unsigned shift = 0;
        while ((1u << shift) < banks_)
            ++shift;
        return shift;
    }();
    arrays_.reserve(banks_);
    for (unsigned b = 0; b < banks_; ++b)
        arrays_.emplace_back(cfg.llcSets, cfg.llcWays, setShift);
}

Cycle
Llc::access(LineAddr line, Cycle when)
{
    hits_.inc();
    const unsigned bank = bankOf(line);
    Cycle &busy = bankBusyUntil_[bank];
    const Cycle start = std::max(when, busy);
    busy = start + occupancy_;
    trace::span(trace::Event::LlcAccess, invalidCore, when,
                start + latency_, line, bank);
    return start + latency_;
}

bool
Llc::contains(LineAddr line) const
{
    return arrays_[bankOf(line)].contains(line);
}

const LineWords &
Llc::lookup(LineAddr line) const
{
    auto it = meta_.find(line);
    tsoper_assert(it != meta_.end(), "LLC lookup of absent line ", line);
    return it->second.words;
}

void
Llc::install(LineAddr line, const LineWords &words, bool dirty, Cycle now)
{
    installs_.inc();
    CacheArray &array = arrays_[bankOf(line)];
    const auto result = array.insert(line);
    tsoper_assert(!result.noSpace, "LLC set fully pinned");
    if (!result.hit && agbPins_.count(line))
        array.setPinned(line, true);
    if (result.evicted) {
        auto vit = meta_.find(result.victim);
        tsoper_assert(vit != meta_.end());
        if (vit->second.dirty) {
            dirtyEvicts_.inc();
            nvm_.write(result.victim, vit->second.words, now);
        }
        meta_.erase(vit);
    }
    Meta &m = meta_[line];
    if (result.hit) {
        mergeWords(m.words, words);
        m.dirty = m.dirty || dirty;
    } else {
        m.words = zeroLine();
        mergeWords(m.words, words);
        m.dirty = dirty;
    }
}

void
Llc::merge(LineAddr line, const LineWords &words, bool dirty, Cycle now)
{
    install(line, words, dirty, now);
}

Cycle
Llc::persistPendingUntil(LineAddr line) const
{
    auto it = meta_.find(line);
    return it == meta_.end() ? 0 : it->second.persistPendingUntil;
}

void
Llc::setPersistPending(LineAddr line, Cycle until)
{
    auto it = meta_.find(line);
    if (it != meta_.end())
        it->second.persistPendingUntil =
            std::max(it->second.persistPendingUntil, until);
}

void
Llc::pinForAgb(LineAddr line)
{
    if (++agbPins_[line] == 1 && arrays_[bankOf(line)].contains(line))
        arrays_[bankOf(line)].setPinned(line, true);
}

void
Llc::unpinForAgb(LineAddr line)
{
    auto it = agbPins_.find(line);
    tsoper_assert(it != agbPins_.end() && it->second > 0,
                  "unbalanced AGB unpin");
    if (--it->second == 0) {
        agbPins_.erase(it);
        if (arrays_[bankOf(line)].contains(line))
            arrays_[bankOf(line)].setPinned(line, false);
    }
}

bool
Llc::isPinned(LineAddr line) const
{
    return agbPins_.count(line) != 0;
}

std::size_t
Llc::population() const
{
    return meta_.size();
}

} // namespace tsoper
