#include "core/stw_engine.hh"

#include "sim/trace.hh"

namespace tsoper
{

StwEngine::StwEngine(const SystemConfig &cfg, EventQueue &eq,
                     SlcProtocol &slc, Agb &agb, StatsRegistry &stats)
    : TsoperEngine(cfg, eq, slc, agb, stats),
      stalls_(stats.counter("stw.stalls")),
      stallCycles_(stats.counter("stw.stall_cycles"))
{
}

bool
StwEngine::coreStalled(CoreId core) const
{
    (void)core;
    return stalled_;
}

void
StwEngine::addStallWaiter(InlineCallback resume)
{
    stallWaiters_.push_back(std::move(resume));
}

void
StwEngine::onFroze(CoreId core, const AtomicGroup &ag, FreezeReason why,
                   Cycle now)
{
    (void)core; (void)ag;
    if (why == FreezeReason::Drain)
        return; // End-of-run flush: the cores are already done.
    if (!stalled_) {
        stalled_ = true;
        stallStart_ = now;
        stalls_.inc();
    }
}

void
StwEngine::onRetired(CoreId core, Cycle now)
{
    (void)core; (void)now;
    maybeResume();
}

void
StwEngine::maybeResume()
{
    if (!stalled_ || anyFrozenUnbuffered())
        return;
    // Naive stop-the-world: resume only once the persist is fully
    // durable — the AGB has drained to NVM.  (TSOPER's contribution is
    // precisely that its cores need not wait for any of this.)
    if (!agb_.quiescent()) {
        agb_.notifyQuiescent([this] { maybeResume(); });
        return;
    }
    stalled_ = false;
    stallCycles_.inc(eq_.now() - stallStart_);
    trace::span(trace::Event::StwStall, invalidCore, stallStart_,
                eq_.now(), 0);
    for (auto &w : stallWaiters_)
        eq_.scheduleIn(0, std::move(w));
    stallWaiters_.clear();
}

} // namespace tsoper
