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
    return find(line) != nullptr;
}

const LineWords &
Llc::lookup(LineAddr line) const
{
    const Way *w = find(line);
    tsoper_assert(w, "LLC lookup of absent line ", line);
    return words_[w->words];
}

void
Llc::install(LineAddr line, const LineWords &words, bool dirty, Cycle now)
{
    installs_.inc();
    CacheArray<Way> &array = arrays_[bankOf(line)];
    const auto result = array.insert(line);
    tsoper_assert(!result.noSpace, "LLC set fully pinned");
    Way &w = *result.slot;
    if (result.hit) {
        mergeWords(words_[w.words], words);
        w.dirty = w.dirty || dirty;
        return;
    }
    if (result.evicted) {
        const Way &victim = result.victimPayload;
        if (victim.dirty) {
            dirtyEvicts_.inc();
            nvm_.write(result.victim, words_[victim.words], now);
        }
        words_.free(victim.words);
    }
    w.words = words_.alloc(zeroLine());
    mergeWords(words_[w.words], words);
    w.dirty = dirty;
    w.agbPins = static_cast<unsigned>(std::erase(pendingPins_, line));
    if (w.agbPins != 0)
        array.setPinned(&w, true);
}

void
Llc::merge(LineAddr line, const LineWords &words, bool dirty, Cycle now)
{
    install(line, words, dirty, now);
}

void
Llc::pinForAgb(LineAddr line)
{
    Way *w = find(line);
    if (!w)
        pendingPins_.push_back(line);
    else if (w->agbPins++ == 0)
        arrays_[bankOf(line)].setPinned(w, true);
}

void
Llc::unpinForAgb(LineAddr line)
{
    if (Way *w = find(line)) {
        tsoper_assert(w->agbPins > 0, "unbalanced AGB unpin");
        if (--w->agbPins == 0)
            arrays_[bankOf(line)].setPinned(w, false);
        return;
    }
    const auto it = std::find(pendingPins_.begin(), pendingPins_.end(), line);
    tsoper_assert(it != pendingPins_.end(), "unbalanced AGB unpin");
    pendingPins_.erase(it);
}

bool
Llc::isPinned(LineAddr line) const
{
    if (const Way *w = find(line))
        return w->agbPins != 0;
    return std::find(pendingPins_.begin(), pendingPins_.end(), line) !=
           pendingPins_.end();
}

} // namespace tsoper
