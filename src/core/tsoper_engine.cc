#include "core/tsoper_engine.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

TsoperEngine::TsoperEngine(const SystemConfig &cfg, EventQueue &eq,
                           SlcProtocol &slc, Agb &agb,
                           StatsRegistry &stats)
    : cfg_(cfg), eq_(eq), slc_(slc), agb_(agb),
      storeWaiters_(cfg.numCores),
      agsPersisted_(stats.counter("ag.persisted")),
      freezeRemote_(stats.counter("ag.freeze_remote")),
      freezeEvict_(stats.counter("ag.freeze_evict")),
      freezeCap_(stats.counter("ag.freeze_size_cap")),
      storeBlocks_(stats.counter("ag.store_blocks")),
      agStores_(stats.histogram("ag.stores")),
      agStoresT_(stats.timeSeries("ag.stores_t"))
{
    mgrs_.reserve(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c)
        mgrs_.push_back(std::make_unique<AgManager>(
            static_cast<CoreId>(c), cfg.agMaxLines,
            stats.histogram("ag.size"),
            stats.histogram("ag.dirty_size")));
}

// ---------------------------------------------------------------------
// Hook side: AG formation and freezing
// ---------------------------------------------------------------------

void
TsoperEngine::onStoreCommitted(CoreId core, LineAddr line, Cycle now)
{
    auto &mgr = *mgrs_[static_cast<unsigned>(core)];
    const bool capFroze =
        mgr.addDirty(line, slc_.nodeIsPersistTail(core, line));
    if (AtomicGroup *g = mgr.groupOf(line); g && g->openedAt == 0)
        g->openedAt = now;
    if (capFroze) {
        freezeCap_.inc();
        const AtomicGroup &frozen = *mgr.groupOf(line);
        agStores_.add(frozen.storeCount);
        agStoresT_.sample(now, static_cast<double>(frozen.storeCount));
        noteFrozen(core, frozen, FreezeReason::SizeCap, now);
        onFroze(core, frozen, FreezeReason::SizeCap, now);
        advance(core);
    }
}

void
TsoperEngine::onReadDependence(CoreId reader, LineAddr line, Cycle now)
{
    auto &mgr = *mgrs_[static_cast<unsigned>(reader)];
    mgr.addClean(line, slc_.nodeIsPersistTail(reader, line));
    if (AtomicGroup *g = mgr.groupOf(line); g && g->openedAt == 0)
        g->openedAt = now;
}

Cycle
TsoperEngine::onDirtyExpose(CoreId owner, LineAddr line, CoreId requester,
                            bool forWrite, Cycle now)
{
    freezeRemote_.inc();
    // The exposure creates a persist-before edge: the owner's AG (which
    // holds the dirty version) must persist before the requester's AG
    // that absorbs the dependence (§III-A).
    if (trace::on(trace::Category::Persist) && requester != invalidCore &&
        requester != owner) {
        if (const AtomicGroup *ag =
                mgrs_[static_cast<unsigned>(owner)]->groupOf(line)) {
            const AgId toId =
                mgrs_[static_cast<unsigned>(requester)]->openOrNextId();
            trace::instant(trace::Event::PbEdge, owner, now,
                           trace::groupTag(owner, ag->id),
                           trace::groupTag(requester, toId));
        }
    }
    freezeGroupOf(owner, line,
                  forWrite ? FreezeReason::RemoteWrite
                           : FreezeReason::RemoteRead,
                  now);
    // No handover delay: SLC grants access at link-up (OBS 3);
    // persistency trails coherence.
    return now;
}

void
TsoperEngine::onDirtyEvict(CoreId owner, LineAddr line, ExposeReason why,
                           Cycle now)
{
    freezeEvict_.inc();
    freezeGroupOf(owner, line,
                  why == ExposeReason::DirEviction
                      ? FreezeReason::DirEviction
                      : FreezeReason::Eviction,
                  now);
}

void
TsoperEngine::freezeGroupOf(CoreId core, LineAddr line, FreezeReason why,
                            Cycle now)
{
    auto &mgr = *mgrs_[static_cast<unsigned>(core)];
    AtomicGroup *ag = mgr.groupOf(line);
    tsoper_assert(ag, "exposed dirty line is not an AG member (core=",
                  core, " line=", line, ")");
    if (!ag->frozen) {
        mgr.freezeOpen(why);
        agStores_.add(ag->storeCount);
        agStoresT_.sample(now, static_cast<double>(ag->storeCount));
        noteFrozen(core, *ag, why, now);
        onFroze(core, *ag, why, now);
    }
    advance(core);
}

void
TsoperEngine::onBecameTail(CoreId core, LineAddr line, Cycle now)
{
    (void)now;
    // The hook means "possibly a persist-tail now"; confirm before
    // clearing the dependence (clean cascades fire it liberally).
    if (slc_.hasNode(core, line) && slc_.nodeIsPersistTail(core, line))
        mgrs_[static_cast<unsigned>(core)]->becameTail(line);
    advance(core);
}

bool
TsoperEngine::lineInUnpersistedAg(CoreId core, LineAddr line) const
{
    return mgrs_[static_cast<unsigned>(core)]->isMember(line);
}

bool
TsoperEngine::lineInFrozenAg(CoreId core, LineAddr line) const
{
    return mgrs_[static_cast<unsigned>(core)]->inFrozenGroup(line);
}

void
TsoperEngine::onNodeRelinked(CoreId core, LineAddr line, Cycle now)
{
    (void)now;
    auto &mgr = *mgrs_[static_cast<unsigned>(core)];
    AtomicGroup *ag = mgr.groupOf(line);
    if (!ag)
        return;
    tsoper_assert(!ag->frozen, "relink of a frozen AG member");
    if (slc_.nodeIsPersistTail(core, line))
        ag->waitingTail.erase(line);
    else
        ag->waitingTail.insert(line);
}

void
TsoperEngine::onMarker(CoreId core, Cycle now)
{
    auto &mgr = *mgrs_[static_cast<unsigned>(core)];
    if (AtomicGroup *ag = mgr.freezeOpen(FreezeReason::Marker)) {
        agStores_.add(ag->storeCount);
        agStoresT_.sample(now, static_cast<double>(ag->storeCount));
        noteFrozen(core, *ag, FreezeReason::Marker, now);
        onFroze(core, *ag, FreezeReason::Marker, now);
        advance(core);
    }
}

void
TsoperEngine::noteFrozen(CoreId core, const AtomicGroup &ag,
                         FreezeReason why, Cycle now)
{
    trace::instant(trace::Event::AgFrozen, core, now,
                   trace::groupTag(core, ag.id), ag.members.size(),
                   static_cast<std::uint64_t>(why));
}

// ---------------------------------------------------------------------
// Core side: store gating
// ---------------------------------------------------------------------

bool
TsoperEngine::storeMayCommit(CoreId core, LineAddr line)
{
    // §II-A: a store to a cacheline in a frozen atomic group blocks
    // until the group persists.
    const bool blocked =
        mgrs_[static_cast<unsigned>(core)]->inFrozenGroup(line);
    if (blocked)
        storeBlocks_.inc();
    return !blocked;
}

void
TsoperEngine::addStoreWaiter(CoreId core, LineAddr line,
                             InlineCallback retry)
{
    storeWaiters_[static_cast<unsigned>(core)].push_back(
        StoreWaiter{line, std::move(retry)});
}

void
TsoperEngine::wakeStoreWaiters(CoreId core)
{
    auto &waiters = storeWaiters_[static_cast<unsigned>(core)];
    if (waiters.empty())
        return;
    auto &mgr = *mgrs_[static_cast<unsigned>(core)];
    std::size_t still = 0; // Compact the blocked ones in place.
    for (auto &w : waiters) {
        if (mgr.inFrozenGroup(w.line))
            waiters[still++] = std::move(w);
        else
            eq_.scheduleIn(0, std::move(w.retry));
    }
    waiters.resize(still);
}

// ---------------------------------------------------------------------
// Persist pipeline
// ---------------------------------------------------------------------

void
TsoperEngine::advance(CoreId core)
{
    auto &mgr = *mgrs_[static_cast<unsigned>(core)];
    for (const auto &agp : mgr.queue()) {
        AtomicGroup &ag = *agp;
        if (!ag.frozen)
            break; // The open AG and everything after persist later.
        if (ag.allocRequested)
            continue; // Already in the AGB pipeline.
        if (!ag.readyToPersist())
            break; // FIFO: younger AGs must not overtake.
        ag.allocRequested = true;
        std::vector<LineAddr> dirty;
        dirty.reserve(ag.members.size());
        for (const auto &[line, isDirty] : ag.members) {
            if (isDirty)
                dirty.push_back(line);
        }
        const AgId id = ag.id;
        ag.handle = agb_.requestAllocation(
            core, std::move(dirty),
            [this, core, id](Cycle t) { onGranted(core, id, t); },
            trace::groupTag(core, id));
    }
}

AtomicGroup *
TsoperEngine::findAg(CoreId core, AgId id)
{
    for (const auto &agp : mgrs_[static_cast<unsigned>(core)]->queue()) {
        if (agp->id == id)
            return agp.get();
    }
    return nullptr;
}

void
TsoperEngine::onGranted(CoreId core, AgId id, Cycle now)
{
    (void)now;
    AtomicGroup *ag = findAg(core, id);
    tsoper_assert(ag, "grant for a retired AG");
    ag->granted = true;
    if (ag->unbuffered == 0) {
        maybeRetire(core);
        return;
    }
    // Stream the dirty lines to the AGB (any order, §II-B); each line's
    // persist token passes as soon as it is buffered.
    for (const auto &[line, isDirty] : ag->members) {
        if (!isDirty)
            continue;
        agb_.bufferLine(ag->handle, line, slc_.nodeWords(core, line),
                        [this, core, id, line](Cycle t) {
            onLineBuffered(core, id, line, t);
        });
    }
}

void
TsoperEngine::onLineBuffered(CoreId core, AgId id, LineAddr line,
                             Cycle now)
{
    AtomicGroup *ag = findAg(core, id);
    tsoper_assert(ag && ag->unbuffered > 0);
    --ag->unbuffered;
    // The version is in the persistent domain: its membership (and the
    // frozen-group store block on the line) ends here.
    mgrs_[static_cast<unsigned>(core)]->releaseBufferedLine(*ag, line);
    // Token passes: the version leaves the sharing list (or becomes a
    // clean, still-valid head).  This may cascade new tails elsewhere.
    slc_.persistComplete(core, line, now);
    wakeStoreWaiters(core);
    if (ag->unbuffered == 0)
        maybeRetire(core);
}

void
TsoperEngine::maybeRetire(CoreId core)
{
    auto &mgr = *mgrs_[static_cast<unsigned>(core)];
    while (AtomicGroup *front = mgr.oldest()) {
        if (!(front->frozen && front->granted && front->unbuffered == 0))
            break;
        trace::span(trace::Event::AgRetired, core, front->openedAt,
                    eq_.now(), trace::groupTag(core, front->id),
                    front->dirtyCount(), front->storeCount);
        const std::vector<LineAddr> clean = mgr.retireOldest();
        for (LineAddr line : clean)
            slc_.releaseCleanMember(core, line, eq_.now());
        agsPersisted_.inc();
        wakeStoreWaiters(core);
        onRetired(core, eq_.now());
    }
    advance(core);
    checkDrainDone();
}

// ---------------------------------------------------------------------
// Drain and crash
// ---------------------------------------------------------------------

void
TsoperEngine::drain(InlineCallback done)
{
    draining_ = true;
    drainDone_ = std::move(done);
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        if (const AtomicGroup *ag =
                mgrs_[c]->freezeOpen(FreezeReason::Drain)) {
            agStores_.add(ag->storeCount);
            agStoresT_.sample(eq_.now(),
                              static_cast<double>(ag->storeCount));
            noteFrozen(static_cast<CoreId>(c), *ag, FreezeReason::Drain,
                       eq_.now());
        }
        advance(static_cast<CoreId>(c));
    }
    checkDrainDone();
}

void
TsoperEngine::checkDrainDone()
{
    if (!draining_ || !drainDone_)
        return;
    for (const auto &mgr : mgrs_) {
        if (!mgr->empty())
            return;
    }
    // All AGs retired; wait for the AGB to finish writing NVM.
    agb_.notifyQuiescent(std::move(drainDone_));
}

bool
TsoperEngine::quiescent() const
{
    for (const auto &mgr : mgrs_) {
        if (!mgr->empty())
            return false;
    }
    return agb_.quiescent();
}

bool
TsoperEngine::anyFrozenUnbuffered() const
{
    for (const auto &mgr : mgrs_) {
        for (const auto &agp : mgr->queue()) {
            if (agp->frozen && agp->unbuffered > 0)
                return true;
        }
    }
    return false;
}

std::unordered_map<LineAddr, LineWords>
TsoperEngine::crashOverlay() const
{
    std::unordered_map<LineAddr, LineWords> overlay;
    for (const auto &[line, words] : agb_.crashOverlay()) {
        auto [it, fresh] = overlay.try_emplace(line, zeroLine());
        (void)fresh;
        mergeWords(it->second, words);
    }
    return overlay;
}

} // namespace tsoper
