#include "core/hwrp_engine.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

namespace
{
/** Local-id bit distinguishing spontaneous (eviction) persists from SFR
 *  batch tags in trace::groupTag space. */
constexpr std::uint64_t spontBit = 1ull << 40;
} // namespace

HwRpEngine::HwRpEngine(const SystemConfig &cfg, EventQueue &eq,
                       SlcProtocol &slc, Nvm &nvm, StatsRegistry &stats)
    : cfg_(cfg), eq_(eq), slc_(slc), nvm_(nvm),
      sfrDirty_(cfg.numCores), sfrStoreCount_(cfg.numCores, 0),
      batchDoneAt_(cfg.numCores, 0),
      batchSeq_(cfg.numCores, 1), spontSeq_(cfg.numCores, 0),
      lastBatchTag_(cfg.numCores, 0), batchAudit_(cfg.numCores),
      wpqPortBusy_(cfg.nvmRanks, 0), wpqCompletions_(cfg.nvmRanks),
      outstanding_(cfg.numCores, 0), syncWaiters_(cfg.numCores),
      persistWb_(stats.counter("traffic.persist_wb")),
      spontaneous_(stats.counter("hwrp.spontaneous_persists")),
      sfrCount_(stats.counter("hwrp.sfrs")),
      sfrSizeHist_(stats.histogram("hwrp.sfr_lines")),
      sfrStoresHist_(stats.histogram("hwrp.sfr_stores")),
      sfrStoresT_(stats.timeSeries("hwrp.sfr_stores_t"))
{
}

void
HwRpEngine::onStoreCommitted(CoreId core, LineAddr line, Cycle now)
{
    (void)now;
    sfrDirty_[static_cast<unsigned>(core)].insert(line);
    ++sfrStoreCount_[static_cast<unsigned>(core)];
}

Cycle
HwRpEngine::onDirtyExpose(CoreId owner, LineAddr line, CoreId requester,
                          bool forWrite, Cycle now)
{
    (void)requester;
    if (forWrite) {
        // The version is superseded by the new writer; under relaxed
        // persistency the old version need not persist (the new
        // writer's full-line version carries its words).
        sfrDirty_[static_cast<unsigned>(owner)].erase(line);
    }
    return now;
}

Cycle
HwRpEngine::persistLine(CoreId core, LineAddr line, const LineWords &words,
                        Cycle earliest, std::uint64_t auditTag,
                        bool batched)
{
    const unsigned r = nvm_.rankOf(line);
    Cycle entry = std::max(earliest, wpqPortBusy_[r]);
    auto &hist = wpqCompletions_[r];
    // The WPQ holds at most wpqEntriesPerMc in-flight lines: the k-th
    // entry waits for the (k - depth)-th NVM completion.
    if (hist.size() >= cfg_.wpqEntriesPerMc)
        entry = std::max(entry, hist.front());
    wpqPortBusy_[r] = entry + 2;
    persistWb_.inc();
    const auto c = static_cast<unsigned>(core);
    ++outstanding_[c];
    ++outstandingTotal_;
    if (trace::on(trace::Category::Persist)) {
        trace::instant(trace::Event::PersistIssue, core, eq_.now(), line,
                       auditTag);
        if (batched) {
            BatchAudit &ba = batchAudit_[c][auditTag];
            ++ba.pending;
            ++ba.lines;
            ba.maxEntry = std::max(ba.maxEntry, entry);
        }
    }
    // Durable at WPQ entry: record the contents for the crash overlay.
    eq_.schedule(entry, [this, core, line, words, auditTag, batched] {
        wpqContents_[line] = words;
        ++wpqPendingCount_[line];
        trace::instant(trace::Event::PersistCommit, core, eq_.now(),
                       line, auditTag);
        if (batched)
            onBatchEntry(core, auditTag);
    });
    const Cycle completion =
        nvm_.write(line, words, entry,
                   [this, core, line](Cycle) { lineDone(core, line); });
    hist.push_back(completion);
    if (hist.size() > cfg_.wpqEntriesPerMc)
        hist.pop_front();
    return entry;
}

void
HwRpEngine::onDirtyEvict(CoreId owner, LineAddr line, ExposeReason why,
                         Cycle now)
{
    (void)why;
    auto &set = sfrDirty_[static_cast<unsigned>(owner)];
    if (!set.erase(line))
        return;
    // Spontaneous persist: the evicted version goes straight to the
    // persist queue (the node is still alive during this hook).  It
    // belongs to the current SFR, so it orders behind previous batches.
    spontaneous_.inc();
    // Spontaneous persists carry no cross-SFR ordering promise, so they
    // audit as unordered singleton groups, not batch members.
    const auto c = static_cast<unsigned>(owner);
    persistLine(owner, line, slc_.nodeWords(owner, line),
                std::max(now, batchDoneAt_[c]),
                trace::groupTag(owner, spontBit | ++spontSeq_[c]),
                false);
}

void
HwRpEngine::onSync(CoreId core, Cycle now)
{
    flushSfr(core, now);
}

void
HwRpEngine::onSyncEvent(CoreId core, Cycle now, SyncEvent event,
                        unsigned id)
{
    const auto c = static_cast<unsigned>(core);
    // Adopting a sync clock creates a cross-core persist-before edge
    // from the batch behind the clock to this core's open batch.
    const auto adoptEdge = [&](std::uint64_t fromTag) {
        if (fromTag != 0)
            trace::instant(trace::Event::PbEdge, core, now, fromTag,
                           trace::groupTag(core, batchSeq_[c]));
    };
    switch (event) {
      case SyncEvent::LockAcquire:
        adoptEdge(lockClockTag_[id]);
        batchDoneAt_[c] = std::max(batchDoneAt_[c], lockClock_[id]);
        break;
      case SyncEvent::LockRelease:
        if (batchDoneAt_[c] > lockClock_[id])
            lockClockTag_[id] = lastBatchTag_[c];
        lockClock_[id] = std::max(lockClock_[id], batchDoneAt_[c]);
        break;
      case SyncEvent::BarrierArrive:
        if (batchDoneAt_[c] > barrierClock_[id])
            barrierClockTag_[id] = lastBatchTag_[c];
        barrierClock_[id] = std::max(barrierClock_[id], batchDoneAt_[c]);
        break;
      case SyncEvent::BarrierResume:
        adoptEdge(barrierClockTag_[id]);
        batchDoneAt_[c] = std::max(batchDoneAt_[c], barrierClock_[id]);
        break;
    }
}

void
HwRpEngine::flushSfr(CoreId core, Cycle now)
{
    const auto c = static_cast<unsigned>(core);
    sfrCount_.inc();
    sfrSizeHist_.add(sfrDirty_[c].size());
    sfrStoresHist_.add(sfrStoreCount_[c]);
    sfrStoresT_.sample(now, static_cast<double>(sfrStoreCount_[c]));
    sfrStoreCount_[c] = 0;
    auto lines = std::move(sfrDirty_[c]);
    sfrDirty_[c].clear();
    if (lines.empty())
        return;
    // Persist order across synchronization: this batch's WPQ entries
    // start after the previous batch's entries; within the batch, no
    // order.
    const Cycle start = std::max(now, batchDoneAt_[c]);
    const std::uint64_t tag = trace::groupTag(core, batchSeq_[c]);
    Cycle done = start;
    unsigned persisted = 0;
    for (LineAddr line : lines) {
        if (!slc_.hasNode(core, line) || !slc_.nodeDirty(core, line))
            continue; // Superseded or already spontaneously persisted.
        const Cycle entry = persistLine(
            core, line, slc_.nodeWords(core, line), start, tag, true);
        done = std::max(done, entry);
        ++persisted;
    }
    batchDoneAt_[c] = done;
    trace::instant(trace::Event::SfrFlushed, core, now, tag, persisted);
    if (trace::on(trace::Category::Persist) && persisted > 0) {
        auto it = batchAudit_[c].find(tag);
        tsoper_assert(it != batchAudit_[c].end());
        it->second.closed = true;
        if (it->second.pending == 0)
            finishBatch(core, tag);
        // The next batch's WPQ entries start after this batch's.
        trace::instant(trace::Event::PbEdge, core, now, tag,
                       trace::groupTag(core, batchSeq_[c] + 1));
        lastBatchTag_[c] = tag;
    }
    ++batchSeq_[c];
}

void
HwRpEngine::onBatchEntry(CoreId core, std::uint64_t tag)
{
    auto &audits = batchAudit_[static_cast<unsigned>(core)];
    auto it = audits.find(tag);
    if (it == audits.end())
        return;
    tsoper_assert(it->second.pending > 0);
    if (--it->second.pending == 0 && it->second.closed)
        finishBatch(core, tag);
}

void
HwRpEngine::finishBatch(CoreId core, std::uint64_t tag)
{
    auto &audits = batchAudit_[static_cast<unsigned>(core)];
    auto it = audits.find(tag);
    tsoper_assert(it != audits.end());
    // All lines are in power-backed WPQ slots: the batch is durable as
    // of its last entry cycle.
    trace::instant(trace::Event::GroupDurable, core,
                   std::max(it->second.maxEntry, eq_.now()), tag,
                   it->second.lines);
    audits.erase(it);
}

void
HwRpEngine::lineDone(CoreId core, LineAddr line)
{
    const auto c = static_cast<unsigned>(core);
    tsoper_assert(outstanding_[c] > 0);
    --outstanding_[c];
    --outstandingTotal_;
    auto it = wpqPendingCount_.find(line);
    if (it != wpqPendingCount_.end() && --it->second == 0) {
        wpqPendingCount_.erase(it);
        wpqContents_.erase(line);
    }
    if (outstanding_[c] <= cfg_.hwrpQueueEntries) {
        for (auto &w : syncWaiters_[c])
            eq_.scheduleIn(0, std::move(w));
        syncWaiters_[c].clear();
    }
    if (draining_ && drainDone_ && outstandingTotal_ == 0)
        eq_.scheduleIn(0, std::move(drainDone_));
}

bool
HwRpEngine::syncMayProceed(CoreId core)
{
    return outstanding_[static_cast<unsigned>(core)] <=
           cfg_.hwrpQueueEntries;
}

void
HwRpEngine::addSyncWaiter(CoreId core, InlineCallback retry)
{
    syncWaiters_[static_cast<unsigned>(core)].push_back(std::move(retry));
}

void
HwRpEngine::drain(InlineCallback done)
{
    draining_ = true;
    drainDone_ = std::move(done);
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        flushSfr(static_cast<CoreId>(c), eq_.now());
    if (outstandingTotal_ == 0 && drainDone_)
        eq_.scheduleIn(0, std::move(drainDone_));
}

bool
HwRpEngine::quiescent() const
{
    return outstandingTotal_ == 0;
}

std::unordered_map<LineAddr, LineWords>
HwRpEngine::crashOverlay() const
{
    return wpqContents_;
}

} // namespace tsoper
