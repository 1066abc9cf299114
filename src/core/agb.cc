#include "core/agb.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

Agb::Agb(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh, Nvm &nvm,
         Llc &llc, StatsRegistry &stats)
    : cfg_(cfg), eq_(eq), bus_(eq, mesh), nvm_(nvm), llc_(llc),
      distributed_(cfg.agbDistributed), unbounded_(cfg.agbUnbounded),
      slices_(cfg.agbDistributed ? cfg.nvmRanks : 1),
      sliceCapacity_(cfg.agbDistributed
                         ? cfg.agbSliceLines
                         : cfg.agbSliceLines * cfg.nvmRanks),
      arbiterNode_(mesh.bankNode(0)),
      sliceUsed_(slices_, 0), slicePortBusy_(slices_, 0),
      agsAllocated_(stats.counter("agb.ags_allocated")),
      linesBuffered_(stats.counter("agb.lines_buffered")),
      persistWb_(stats.counter("traffic.persist_wb")),
      allocStallCycles_(stats.counter("agb.alloc_stall_cycles")),
      occupancyHist_(stats.histogram("agb.occupancy"))
{
}

bool
Agb::fits(const AgRec &ag) const
{
    if (unbounded_)
        return true;
    for (unsigned s = 0; s < slices_; ++s) {
        if (sliceUsed_[s] + ag.sliceNeeds[s] > sliceCapacity_)
            return false;
    }
    return true;
}

Agb::AgHandle
Agb::requestAllocation(CoreId from, std::vector<LineAddr> lines,
                       Done granted, std::uint64_t auditTag)
{
    const AgHandle h = nextHandle_++;
    AgRec &ag = ags_[h];
    ag.handle = h;
    ag.auditTag = auditTag ? auditTag : h;
    ag.from = from;
    ag.lines = std::move(lines);
    ag.sliceNeeds.assign(slices_, 0);
    for (LineAddr line : ag.lines)
        ++ag.sliceNeeds[sliceOf(line)];
    ag.remaining = static_cast<unsigned>(ag.lines.size());
    ag.undrained = ag.remaining;
    ag.grantedCb = std::move(granted);
    if (!unbounded_) {
        for (unsigned s = 0; s < slices_; ++s) {
            tsoper_assert(ag.sliceNeeds[s] <= sliceCapacity_,
                          "atomic group exceeds AGB slice capacity");
        }
    }
    // Two-phase ingress: the request travels to the arbiter; grants are
    // issued in FIFO order as space allows.
    bus_.send(bus_.coreNode(from), arbiterNode_, cfg_.ctrlMsgBytes,
              [this, h] {
                  allocQueue_.push_back(h);
                  tryGrant();
              });
    return h;
}

void
Agb::tryGrant()
{
    while (!allocQueue_.empty()) {
        auto it = ags_.find(allocQueue_.front());
        tsoper_assert(it != ags_.end());
        AgRec &ag = it->second;
        if (!fits(ag))
            return; // Strict FIFO: younger AGs wait behind.
        allocQueue_.pop_front();
        grant(ag);
    }
}

void
Agb::grant(AgRec &ag)
{
    agsAllocated_.inc();
    ag.granted = true;
    for (unsigned s = 0; s < slices_; ++s)
        sliceUsed_[s] += ag.sliceNeeds[s];
    unsigned total = 0;
    for (unsigned s = 0; s < slices_; ++s)
        total += sliceUsed_[s];
    occupancyHist_.add(total);
    trace::instant(trace::Event::AgbGrant, ag.from, eq_.now(),
                   ag.auditTag, ag.lines.size(), total);
    trace::counter(trace::Event::AgbOccupancy, invalidCore, eq_.now(),
                   total);
    fifo_.push_back(ag.handle);
    // Broadcast the grant back to the requesting L1.
    const AgHandle h = ag.handle;
    bus_.send(arbiterNode_, bus_.coreNode(ag.from), cfg_.ctrlMsgBytes,
              [this, h, cb = std::move(ag.grantedCb)]() mutable {
        if (cb)
            cb(eq_.now());
        // Empty AGs (all-clean groups) complete immediately.
        auto it = ags_.find(h);
        if (it != ags_.end() && it->second.remaining == 0 &&
            !it->second.complete) {
            it->second.complete = true;
            advanceCommitted();
        }
    });
}

void
Agb::bufferLine(AgHandle h, LineAddr line, const LineWords &words,
                Done done)
{
    auto it = ags_.find(h);
    tsoper_assert(it != ags_.end(), "bufferLine on unknown AG");
    AgRec &ag = it->second;
    tsoper_assert(ag.granted, "bufferLine before allocation grant");
    tsoper_assert(ag.remaining > 0, "bufferLine past AG size");
    tsoper_assert(ag.buffered.emplace(line, words).second,
                  "line buffered twice");
    const unsigned s = sliceOf(line);
    // NoC leg to the slice, then the SRAM port serializes writes.
    const int sliceNode =
        distributed_ ? bus_.mcNode(nvm_.rankOf(line)) : arbiterNode_;
    const Cycle arrive = bus_.arrival(bus_.coreNode(ag.from), sliceNode,
                                     lineBytes + cfg_.ctrlMsgBytes,
                                     eq_.now());
    const Cycle start = std::max(arrive, slicePortBusy_[s]);
    const Cycle complete = start + cfg_.agbWriteLatency;
    slicePortBusy_[s] = complete;
    linesBuffered_.inc();
    persistWb_.inc();
    trace::instant(trace::Event::PersistIssue, ag.from, eq_.now(), line,
                   ag.auditTag);
    eq_.schedule(complete, [this, h, line, done = std::move(done)]() mutable {
        auto iter = ags_.find(h);
        tsoper_assert(iter != ags_.end());
        AgRec &rec = iter->second;
        --rec.remaining;
        // The AGB SRAM is power-backed: a buffered line is already in
        // the persistent domain, so this is its durable point.
        trace::instant(trace::Event::PersistCommit, rec.from, eq_.now(),
                       line, rec.auditTag);
        // LLC inclusion of AGB contents (the paper's §II-B future
        // optimization): the line is pinned in the LLC until its NVM
        // write completes, so loads never search the AGB and no LLC
        // eviction can overtake the in-flight drain.
        llc_.pinForAgb(line);
        if (done)
            done(eq_.now());
        if (rec.remaining == 0) {
            rec.complete = true;
            advanceCommitted();
        }
    });
}

void
Agb::advanceCommitted()
{
    // Super-group rule: drain-eligible AGs are the consecutive complete
    // prefix of the allocation FIFO.
    while (committedPrefix_ < fifo_.size()) {
        auto it = ags_.find(fifo_[committedPrefix_]);
        tsoper_assert(it != ags_.end());
        AgRec &ag = it->second;
        if (!ag.complete)
            break;
        // Advance the prefix before draining: an empty AG retires
        // synchronously inside drainAg and pops itself off the FIFO.
        ++committedPrefix_;
        // Joining the committed prefix is the AG's atomic durable
        // point under the crash rule above.
        trace::instant(trace::Event::GroupDurable, ag.from, eq_.now(),
                       ag.auditTag, ag.lines.size());
        if (!ag.drainIssued) {
            ag.drainIssued = true;
            drainAg(ag);
        }
    }
}

void
Agb::drainAg(AgRec &ag)
{
    if (ag.lines.empty()) {
        maybeRetire(ag.handle);
        return;
    }
    const AgHandle h = ag.handle;
    for (LineAddr line : ag.lines) {
        const auto wit = ag.buffered.find(line);
        tsoper_assert(wit != ag.buffered.end());
        const unsigned s = sliceOf(line);
        nvm_.write(line, wit->second, eq_.now(),
                   [this, h, s, line](Cycle) {
            // NVM write durable: free the AGB slot and release the
            // LLC pin.
            llc_.unpinForAgb(line);
            tsoper_assert(sliceUsed_[s] > 0);
            --sliceUsed_[s];
            if (trace::on(trace::Category::Agb)) {
                unsigned total = 0;
                for (unsigned sl = 0; sl < slices_; ++sl)
                    total += sliceUsed_[sl];
                trace::counter(trace::Event::AgbOccupancy, invalidCore,
                               eq_.now(), total);
            }
            auto it = ags_.find(h);
            tsoper_assert(it != ags_.end());
            --it->second.undrained;
            maybeRetire(h);
            tryGrant();
        });
    }
}

void
Agb::maybeRetire(AgHandle h)
{
    auto it = ags_.find(h);
    tsoper_assert(it != ags_.end());
    if (it->second.undrained != 0 || !it->second.drainIssued)
        return;
    // Fully durable in NVM: drop the record and compact the FIFO head.
    trace::instant(trace::Event::AgbDrained, it->second.from, eq_.now(),
                   it->second.auditTag);
    ags_.erase(it);
    while (!fifo_.empty() && !ags_.count(fifo_.front())) {
        fifo_.pop_front();
        tsoper_assert(committedPrefix_ > 0);
        --committedPrefix_;
    }
    checkQuiescent();
}

std::vector<std::pair<LineAddr, LineWords>>
Agb::crashOverlay() const
{
    // Durable contents: the committed prefix in allocation order.  Lines
    // already drained to NVM are included harmlessly (idempotent).
    std::vector<std::pair<LineAddr, LineWords>> overlay;
    for (std::size_t i = 0; i < committedPrefix_; ++i) {
        auto it = ags_.find(fifo_[i]);
        if (it == ags_.end())
            continue;
        const AgRec &ag = it->second;
        for (LineAddr line : ag.lines) {
            auto wit = ag.buffered.find(line);
            tsoper_assert(wit != ag.buffered.end());
            overlay.emplace_back(line, wit->second);
        }
    }
    return overlay;
}

bool
Agb::quiescent() const
{
    return ags_.empty() && allocQueue_.empty();
}

void
Agb::notifyQuiescent(InlineCallback fn)
{
    if (quiescent()) {
        eq_.scheduleIn(0, std::move(fn));
        return;
    }
    quiescentWaiters_.push_back(std::move(fn));
}

void
Agb::checkQuiescent()
{
    if (!quiescent())
        return;
    for (auto &w : quiescentWaiters_)
        eq_.scheduleIn(0, std::move(w));
    quiescentWaiters_.clear();
}

} // namespace tsoper
