#include "core/bsp_engine.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

BspEngine::BspEngine(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
                     Llc &llc, Nvm &nvm, MesiProtocol *mesi,
                     SlcProtocol *slc, Agb *agb, StatsRegistry &stats,
                     Mode mode)
    : cfg_(cfg), eq_(eq), bus_(eq, mesh), llc_(llc), nvm_(nvm), mesi_(mesi),
      slc_(slc), agb_(agb), mode_(mode), banks_(cfg.llcBanks),
      epochs_(cfg.numCores), latest_(cfg.numCores),
      carriedDeps_(cfg.numCores), storeWaiters_(cfg.numCores),
      epochsClosed_(stats.counter("bsp.epochs_closed")),
      epochBreaks_(stats.counter("bsp.epoch_breaks")),
      persistWb_(stats.counter("traffic.persist_wb")),
      l1ExclusionCycles_(stats.counter("bsp.l1_exclusion_cycles")),
      llcExclusionCycles_(stats.counter("bsp.llc_exclusion_cycles")),
      epochLines_(stats.histogram("bsp.epoch_lines"))
{
    tsoper_assert((mode == Mode::Bsp) == (mesi != nullptr),
                  "BSP proper runs on MESI");
    tsoper_assert((mode != Mode::Bsp) == (slc != nullptr),
                  "BSP+SLC variants run on SLC");
    tsoper_assert((mode == Mode::BspSlcAgb) == (agb != nullptr),
                  "only BSP+SLC+AGB uses the AGB");
}

BspEngine::~BspEngine()
{
    // A waiting epoch holds its dep and the dep holds it back (deps,
    // dependents) until the dep persists.  Every unpersisted epoch is
    // still queued in epochs_.
    for (const auto &q : epochs_) {
        for (const EpochPtr &e : q) {
            e->deps.clear();
            e->dependents.clear();
        }
    }
}

BspEngine::Epoch &
BspEngine::openEpoch(CoreId core)
{
    auto &q = epochs_[static_cast<unsigned>(core)];
    if (q.empty() || q.back()->closed) {
        auto e = std::make_shared<Epoch>();
        e->uid = nextUid_++;
        e->core = core;
        e->openedAt = eq_.now();
        auto &carried = carriedDeps_[static_cast<unsigned>(core)];
        for (EpochPtr &dep : carried) {
            if (dep->persisted)
                continue;
            trace::instant(trace::Event::PbEdge, core, eq_.now(),
                           dep->uid, e->uid);
            e->deps.push_back(std::move(dep));
        }
        carried.clear();
        q.push_back(std::move(e));
        ++outstanding_;
    }
    return *q.back();
}

void
BspEngine::snapshot(Epoch &e, LineAddr line)
{
    if (e.snapshotted.count(line))
        return;
    if (mode_ == Mode::Bsp) {
        if (mesi_->isModified(e.core, line)) {
            e.words[line] = mesi_->lineWords(e.core, line);
            e.snapshotted.insert(line);
        }
    } else {
        if (slc_->hasNode(e.core, line) && slc_->nodeValid(e.core, line) &&
            slc_->nodeDirty(e.core, line)) {
            e.words[line] = slc_->nodeWords(e.core, line);
            e.snapshotted.insert(line);
        }
    }
}

void
BspEngine::onStoreCommitted(CoreId core, LineAddr line, Cycle now)
{
    Epoch &e = openEpoch(core);
    if (!e.words.count(line)) {
        e.order.push_back(line);
        e.words[line] = zeroLine();
    } else if (e.snapshotted.count(line)) {
        // The line was evicted (snapshot taken early) and re-fetched;
        // this store creates a newer in-epoch version, so re-snapshot
        // at close.
        e.snapshotted.erase(line);
        e.flushAt.erase(line);
    }
    latest_[static_cast<unsigned>(core)][line] =
        epochs_[static_cast<unsigned>(core)].back();
    ++e.storeCount;
    if (e.storeCount >= cfg_.bspEpochStores)
        closeEpoch(core, now);
}

void
BspEngine::onDirtyEvict(CoreId owner, LineAddr line, ExposeReason why,
                        Cycle now)
{
    (void)why;
    auto &map = latest_[static_cast<unsigned>(owner)];
    auto it = map.find(line);
    if (it == map.end() || it->second->persisted)
        return;
    Epoch &e = *it->second;
    if (e.flushAt.count(line))
        return; // Already flushed (or persisting via the close path).
    // The protocol already wrote the version to the LLC; snapshot it
    // (the node is still alive during this hook) and mark it flushed.
    // Closed epochs always snapshot their dirty lines at close, so this
    // only happens for the still-open epoch; the NVM persist is issued
    // when the epoch closes (persistLine sees the line as flushed).
    snapshot(e, line);
    e.flushAt[line] = now;
}

Cycle
BspEngine::onDirtyExpose(CoreId owner, LineAddr line, CoreId requester,
                         bool forWrite, Cycle now)
{
    (void)forWrite;
    auto &map = latest_[static_cast<unsigned>(owner)];
    auto it = map.find(line);
    if (it == map.end() || it->second->persisted)
        return now;
    EpochPtr e = it->second;
    if (!e->closed) {
        // Deadlock-avoidance break: conflicts close the epoch early.
        epochBreaks_.inc();
        closeEpoch(owner, now);
    }
    // The requester's (open) epoch inherits a persist-before dependence
    // on the exposed epoch — the coarse, epoch-granular analogue of
    // TSOPER's per-line sharing-list order.
    if (requester != owner && !e->persisted) {
        Epoch &mine = openEpoch(requester);
        mine.deps.push_back(e);
        trace::instant(trace::Event::PbEdge, owner, now, e->uid,
                       mine.uid);
    }
    if (mode_ != Mode::Bsp)
        return now; // SLC multiversioning: no L1 exclusion.
    // L1 exclusion: the handover waits until this line reaches the LLC.
    auto fit = e->flushAt.find(line);
    const Cycle handover = fit == e->flushAt.end() ? now : fit->second;
    if (handover > now)
        l1ExclusionCycles_.inc(handover - now);
    return std::max(handover, now);
}

void
BspEngine::closeEpoch(CoreId core, Cycle now)
{
    auto &q = epochs_[static_cast<unsigned>(core)];
    if (q.empty() || q.back()->closed)
        return;
    EpochPtr e = q.back();
    e->closed = true;
    epochsClosed_.inc();
    epochLines_.add(e->order.size());
    trace::instant(trace::Event::EpochClosed, core, now, e->uid,
                   e->order.size(), e->storeCount);
    for (LineAddr line : e->order)
        snapshot(*e, line);
    e->pending = 0;
    for (LineAddr line : e->order) {
        if (e->snapshotted.count(line))
            ++e->pending;
    }
    if (mode_ != Mode::BspSlcAgb) {
        // Phase 1 (through-LLC modes): write the versions into the LLC
        // immediately — this is what releases BSP's L1 exclusion and
        // the per-cache store block.  The NVM phase is dep-ordered.
        for (LineAddr line : e->order) {
            if (e->snapshotted.count(line))
                flushLineToLlc(*e, line, now);
        }
    }
    if (e->pending == 0) {
        // Nothing to persist: the epoch completes immediately (no
        // durable point, no throttling), but its persist-before deps
        // must not evaporate — the core's next epoch inherits them.
        auto &carried = carriedDeps_[static_cast<unsigned>(core)];
        for (const EpochPtr &dep : e->deps) {
            if (!dep->persisted)
                carried.push_back(dep);
        }
        e->deps.clear();
        markPersisted(e);
        return;
    }
    tryIssuePersist(e, now);
}

void
BspEngine::flushLineToLlc(Epoch &e, LineAddr line, Cycle earliest)
{
    // LLC exclusion: wait for the previous version's NVM persist.
    Cycle ready = earliest;
    if (auto it = lineNvmReady_.find(line); it != lineNvmReady_.end())
        ready = std::max(ready, it->second);
    if (ready > earliest)
        llcExclusionCycles_.inc(ready - earliest);
    if (e.flushAt.count(line))
        return; // Already written back (eviction path).
    const Cycle flushDone =
        ready + bus_.idealLatency(
                    bus_.coreNode(e.core),
                    bus_.bankNode(static_cast<unsigned>(line) &
                                   (banks_ - 1)),
                    lineBytes + cfg_.ctrlMsgBytes);
    e.flushAt[line] = flushDone;
    // Functional LLC update at the flush instant, only if this
    // snapshot is still the line's current version.
    const LineWords snap = e.words.at(line);
    const CoreId core = e.core;
    eq_.schedule(flushDone, [this, line, snap, core] {
        const bool current =
            mode_ == Mode::Bsp
                ? (mesi_->isModified(core, line) &&
                   mesi_->lineWords(core, line) == snap)
                : (slc_->hasNode(core, line) &&
                   slc_->nodeValid(core, line) &&
                   slc_->nodeWords(core, line) == snap);
        if (current)
            llc_.install(line, snap, true, eq_.now());
        wakeStoreWaiters(core);
    });
}

void
BspEngine::tryIssuePersist(const EpochPtr &e, Cycle now)
{
    if (e->persistIssued || e->persisted)
        return;
    for (const EpochPtr &dep : e->deps) {
        if (!dep->persisted) {
            if (!e->waitingOnDeps) {
                e->waitingOnDeps = true;
            }
            dep->dependents.push_back(e);
            return; // Re-tried when this dep persists.
        }
    }
    e->persistIssued = true;
    e->deps.clear();
    if (mode_ == Mode::BspSlcAgb)
        persistViaAgb(e, now);
    else
        issueNvmWrites(e, now);
}

void
BspEngine::issueNvmWrites(const EpochPtr &e, Cycle now)
{
    for (LineAddr line : e->order) {
        if (!e->snapshotted.count(line))
            continue;
        const Cycle earliest =
            std::max(now, e->flushAt.count(line) ? e->flushAt.at(line)
                                                 : now);
        Cycle ready = earliest;
        if (auto it = lineNvmReady_.find(line);
            it != lineNvmReady_.end())
            ready = std::max(ready, it->second);
        const Cycle completion =
            nvm_.write(line, e->words.at(line), ready);
        persistWb_.inc();
        trace::instant(trace::Event::PersistIssue, e->core, ready, line,
                       e->uid);
        lineNvmReady_[line] = completion;
        eq_.schedule(completion, [this, e, line] {
            trace::instant(trace::Event::PersistCommit, e->core,
                           eq_.now(), line, e->uid);
            epochLineDone(e, 0);
        });
    }
}

void
BspEngine::persistViaAgb(const EpochPtr &e, Cycle now)
{
    (void)now;
    std::vector<LineAddr> lines;
    for (LineAddr line : e->order) {
        if (e->snapshotted.count(line))
            lines.push_back(line);
    }
    e->pending = static_cast<unsigned>(lines.size());
    if (lines.empty()) {
        markPersisted(e);
        return;
    }
    e->handle = agb_->requestAllocation(
        e->core, std::move(lines),
        [this, e](Cycle) {
            for (LineAddr line : e->order) {
                if (!e->snapshotted.count(line))
                    continue;
                agb_->bufferLine(e->handle, line, e->words.at(line),
                                 [this, e, line](Cycle t) {
                    // The version is in the persistent domain: stores
                    // to the line may proceed.
                    e->flushAt[line] = t;
                    wakeStoreWaiters(e->core);
                    epochLineDone(e, t);
                });
            }
        },
        e->uid);
}

void
BspEngine::epochLineDone(const EpochPtr &e, Cycle now)
{
    (void)now;
    tsoper_assert(e->pending > 0);
    if (--e->pending == 0)
        markPersisted(e);
}

void
BspEngine::markPersisted(const EpochPtr &e)
{
    e->persisted = true;
    trace::span(trace::Event::EpochPersisted, e->core, e->openedAt,
                eq_.now(), e->uid, e->order.size());
    // In AGB mode the buffer emits the group-durable record at the
    // committed-prefix instant; emitting here too would double-count.
    // An epoch that persisted nothing has no recovery-visible durable
    // point, so it gets no record either.
    if (mode_ != Mode::BspSlcAgb && !e->snapshotted.empty())
        trace::instant(trace::Event::GroupDurable, e->core, eq_.now(),
                       e->uid, e->order.size());
    auto &q = epochs_[static_cast<unsigned>(e->core)];
    while (!q.empty() && q.front()->persisted) {
        q.pop_front();
        tsoper_assert(outstanding_ > 0);
        --outstanding_;
    }
    wakeStoreWaiters(e->core);
    // Dep-ordered persists: epochs waiting on this one may go now.
    auto dependents = std::move(e->dependents);
    e->dependents.clear();
    for (const EpochPtr &d : dependents)
        tryIssuePersist(d, eq_.now());
    checkDrainDone();
}

bool
BspEngine::storeMayCommit(CoreId core, LineAddr line)
{
    // In every mode a store to a closed, unpersisted epoch's line must
    // wait until that line's version is safely out of the L1 (written
    // to the LLC, or buffered in the AGB).  This is the per-cache
    // multiversion rule TSOPER also obeys — and with BSP's huge static
    // epochs it is the §V-B "serialization overhead of large epochs":
    // the more lines an epoch holds, the longer its lines stay locked.
    auto &map = latest_[static_cast<unsigned>(core)];
    auto it = map.find(line);
    if (it == map.end() || it->second->persisted || !it->second->closed)
        return true;
    const Epoch &e = *it->second;
    auto fit = e.flushAt.find(line);
    return fit != e.flushAt.end() && fit->second <= eq_.now();
}

void
BspEngine::addStoreWaiter(CoreId core, LineAddr line,
                          InlineCallback retry)
{
    storeWaiters_[static_cast<unsigned>(core)].push_back(
        StoreWaiter{line, std::move(retry)});
}

void
BspEngine::wakeStoreWaiters(CoreId core)
{
    auto &waiters = storeWaiters_[static_cast<unsigned>(core)];
    if (waiters.empty())
        return;
    std::size_t still = 0; // Compact the blocked ones in place.
    for (auto &w : waiters) {
        if (storeMayCommit(core, w.line))
            eq_.scheduleIn(0, std::move(w.retry));
        else
            waiters[still++] = std::move(w);
    }
    waiters.resize(still);
}

void
BspEngine::onMarker(CoreId core, Cycle now)
{
    closeEpoch(core, now);
}

void
BspEngine::drain(InlineCallback done)
{
    draining_ = true;
    drainDone_ = std::move(done);
    for (unsigned c = 0; c < cfg_.numCores; ++c)
        closeEpoch(static_cast<CoreId>(c), eq_.now());
    checkDrainDone();
}

void
BspEngine::checkDrainDone()
{
    if (!draining_ || !drainDone_ || outstanding_ != 0)
        return;
    if (agb_)
        agb_->notifyQuiescent(std::move(drainDone_));
    else
        eq_.scheduleIn(0, std::move(drainDone_));
}

bool
BspEngine::quiescent() const
{
    return outstanding_ == 0 && (!agb_ || agb_->quiescent());
}

std::unordered_map<LineAddr, LineWords>
BspEngine::crashOverlay() const
{
    std::unordered_map<LineAddr, LineWords> overlay;
    if (agb_) {
        for (const auto &[line, words] : agb_->crashOverlay()) {
            auto [it, fresh] = overlay.try_emplace(line, zeroLine());
            (void)fresh;
            mergeWords(it->second, words);
        }
    }
    return overlay;
}

} // namespace tsoper
