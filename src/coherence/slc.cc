#include "coherence/slc.hh"

#include <algorithm>
#include <utility>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

SlcProtocol::SlcProtocol(const SystemConfig &cfg, EventQueue &eq, Mesh &mesh,
                         Llc &llc, Nvm &nvm, StatsRegistry &stats)
    : cfg_(cfg), eq_(eq), bus_(eq, mesh), llc_(llc), nvm_(nvm),
      serializer_(eq), capacity_(cfg.dirEntriesPerBank, cfg.llcBanks,
                                 cfg.dirEvictBufferEntries, stats),
      mshr_(eq, cfg.numCores, cfg.mshrEntries, stats),
      banks_(cfg.llcBanks),
      hits_(stats.counter("slc.hits")),
      misses_(stats.counter("slc.misses")),
      upgrades_(stats.counter("slc.upgrades")),
      coherenceWb_(stats.counter("traffic.coherence_wb")),
      persistListLen_(stats.histogram("slc.persist_list_len")),
      coherenceListLen_(stats.histogram("slc.coherence_list_len")),
      evictBufHist_(stats.histogram("slc.evict_buffer_occupancy"))
{
    caches_.reserve(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        caches_.push_back(PrivateCache{
            CacheArray<Node>(cfg.privSets, cfg.privWays),
            EvictBuffer<Node>(cfg.evictBufferEntries, "SLC eviction buffer")});
    }
}

SlcProtocol::Node *
SlcProtocol::findNode(CoreId core, LineAddr line)
{
    PrivateCache &cache = caches_[static_cast<unsigned>(core)];
    if (Node *n = cache.array.find(line))
        return n;
    return cache.evicted.find(line);
}

const SlcProtocol::Node *
SlcProtocol::findNode(CoreId core, LineAddr line) const
{
    return const_cast<SlcProtocol *>(this)->findNode(core, line);
}

SlcProtocol::Node &
SlcProtocol::node(CoreId core, LineAddr line)
{
    Node *n = findNode(core, line);
    tsoper_assert(n, "missing SLC node: core=", core, " line=", line);
    return *n;
}

SlcProtocol::Entry &
SlcProtocol::entry(LineAddr line)
{
    Entry *e = capacity_.find(line);
    tsoper_assert(e, "missing SLC directory entry: line=", line);
    return *e;
}

// --------------------------------------------------------------------
// Public access paths
// --------------------------------------------------------------------

void
SlcProtocol::load(CoreId core, Addr addr, LoadDone done)
{
    issueLoad(core, addr, std::move(done), false);
}

void
SlcProtocol::issueLoad(CoreId core, Addr addr, LoadDone done, bool holdsMshr)
{
    const LineAddr line = lineOf(addr);
    if (Node *n = findNode(core, line); n && n->valid) {
        hits_.inc();
        if (!n->evicted)
            caches_[static_cast<unsigned>(core)].array.touch(n);
        const StoreId value = words_[n->words][wordOf(addr)];
        eq_.scheduleIn(cfg_.privLatency, [this, core, holdsMshr, line, value,
                                          done = std::move(done)]() mutable {
            mshr_.complete(core, line, holdsMshr, done, eq_.now(), value);
        });
        return;
    }
    if (!holdsMshr && !mshr_.admit(core, line, &holdsMshr)) {
        mshr_.defer(core, retryLoad(core, addr, std::move(done), false));
        return;
    }
    misses_.inc();
    submitTxn(core, line,
              [this, core, holdsMshr, addr,
               done = std::move(done)](Cycle t) mutable {
                  return loadTxn(core, addr, std::move(done), holdsMshr, t);
              },
              eq_.now() + cfg_.privLatency);
}

void
SlcProtocol::store(CoreId core, Addr addr, StoreId store, StoreDone done)
{
    issueStore(core, addr, store, std::move(done), false);
}

void
SlcProtocol::issueStore(CoreId core, Addr addr, StoreId store,
                        StoreDone done, bool holdsMshr)
{
    const LineAddr line = lineOf(addr);
    if (Node *n = findNode(core, line);
        n && n->valid && !n->evicted && n->bwd == invalidCore &&
        (n->dirty || n->fwd == invalidCore)) {
        // Silent write: we are the head and either already the
        // exclusive writer or the sole copy (E-like upgrade).
        hits_.inc();
        caches_[static_cast<unsigned>(core)].array.touch(n);
        words_[n->words][wordOf(addr)] = store;
        n->dirty = true;
        hooks_->onStoreCommitted(core, line, eq_.now());
        logStore(core, addr, store);
        eq_.scheduleIn(cfg_.privLatency, [this, core, holdsMshr, line,
                                          done = std::move(done)]() mutable {
            mshr_.complete(core, line, holdsMshr, done, eq_.now());
        });
        return;
    }
    if (!holdsMshr && !mshr_.admit(core, line, &holdsMshr)) {
        mshr_.defer(core, retryStore(core, addr, store, std::move(done),
                                     false));
        return;
    }
    submitTxn(core, line,
              [this, core, holdsMshr, addr, store,
               done = std::move(done)](Cycle t) mutable {
                  return storeTxn(core, addr, store, std::move(done),
                                  holdsMshr, t);
              },
              eq_.now() + cfg_.privLatency);
}

InlineCallback
SlcProtocol::retryLoad(CoreId core, Addr addr, LoadDone done, bool holdsMshr)
{
    return [this, core, holdsMshr, addr, done = std::move(done)]() mutable {
        issueLoad(core, addr, std::move(done), holdsMshr);
    };
}

InlineCallback
SlcProtocol::retryStore(CoreId core, Addr addr, StoreId store,
                        StoreDone done, bool holdsMshr)
{
    return [this, core, holdsMshr, addr, store,
            done = std::move(done)]() mutable {
        issueStore(core, addr, store, std::move(done), holdsMshr);
    };
}

void
SlcProtocol::submitTxn(CoreId core, LineAddr line, LineSerializer::Body body,
                       Cycle departAt)
{
    bus_.send(bus_.coreNode(core), bus_.bankNode(bankOf(line)),
              cfg_.ctrlMsgBytes, departAt,
              [this, line, body = std::move(body)]() mutable {
                  serializer_.submit(line, std::move(body));
              });
}

bool
SlcProtocol::ownNodeBlocks(CoreId core, LineAddr line, Cycle t,
                           bool *relinked)
{
    Node *n = findNode(core, line);
    if (!n || n->valid)
        return false;
    if (n->dirty || hooks_->lineInFrozenAg(core, line)) {
        // The local invalid version is pending persist (dirty), or the
        // line belongs to a frozen AG whose dependence set must not
        // grow: the access stalls until the version/group clears
        // (§II-A multiversioning).
        return true;
    }
    // Stale clean copy: splice it and proceed as a plain miss.  If it
    // was a clean member of the still-open AG, the re-linked node will
    // carry the (conservatively larger) dependence; the caller fires
    // onNodeRelinked so the engine recomputes it.
    if (relinked)
        *relinked = hooks_->lineInUnpersistedAg(core, line);
    unlinkNode(core, line, t);
    return false;
}

// --------------------------------------------------------------------
// Transaction bodies
// --------------------------------------------------------------------

std::optional<Cycle>
SlcProtocol::loadTxn(CoreId core, Addr addr, LoadDone done, bool holdsMshr,
                     Cycle t)
{
    const LineAddr line = lineOf(addr);
    if (capacity_.inEvictBuffer(line)) {
        zombieWaiters_[line].push_back(
            retryLoad(core, addr, std::move(done), holdsMshr));
        return t + dirLatency_;
    }
    if (Node *n = findNode(core, line); n && n->valid) {
        // Raced with our own eviction-buffer revival or a queued
        // upgrade: serve as a hit.
        const StoreId value = words_[n->words][wordOf(addr)];
        mshr_.complete(core, line, holdsMshr, done, t + dirLatency_, value);
        return t + dirLatency_;
    }
    bool relinked = false;
    if (ownNodeBlocks(core, line, t, &relinked)) {
        nodeWaiters_[waiterKey(core, line)].push_back(
            retryLoad(core, addr, std::move(done), holdsMshr));
        return t + dirLatency_;
    }

    allocateEntry(line, t);

    // Re-fetch: the waiter/teardown paths above may have erased and
    // re-created the entry.
    const CoreId h = entry(line).head;
    if (h == invalidCore || !node(h, line).valid) {
        // No valid cached copy: the LLC (or NVM) holds the current
        // version (invalid heads imply their successors' versions
        // already reached the LLC).  Contents resolve now — they are
        // directory-side state — while the timing goes through the
        // bank pipe and a data-reply message; the line stays held (and
        // its entry pinned against teardown) until the pipe answers,
        // so dataReadyAt is final before the next same-line dispatch.
        const bool fromNvm = !llc_.contains(line);
        LineWords words;
        if (fromNvm) {
            words = nvm_.durable(line);
            llc_.install(line, words, false, t);
        } else {
            words = llc_.lookup(line);
        }
        prependNode(core, line, words, 0, t);
        if (relinked)
            hooks_->onNodeRelinked(core, line, t);
        sampleListStats(line);
        capacity_.setPinned(line, true);
        const StoreId value = words[wordOf(addr)];
        const Cycle freeNoEarlier = t + dirLatency_;
        const Cycle bankAt = llc_.access(line, t);
        eq_.schedule(bankAt, [this, core, holdsMshr, fromNvm, line, value,
                              freeNoEarlier,
                              done = std::move(done)]() mutable {
            const Cycle atBank =
                fromNvm ? nvm_.read(line, eq_.now()) : eq_.now();
            const Cycle dataAt = mshr_.reply(
                bus_, bus_.bankNode(bankOf(line)), core, line, holdsMshr,
                lineBytes + cfg_.ctrlMsgBytes, atBank, std::move(done), value);
            if (Node *n = findNode(core, line))
                n->dataReadyAt = std::max(n->dataReadyAt, dataAt);
            capacity_.setPinned(line, false);
            serializer_.releaseAt(line, std::max(eq_.now(), freeNoEarlier));
        });
        return std::nullopt;
    }

    // Cache-to-cache: nonblocking (OBS 3).  The list re-links and the
    // hooks fire now — the directory's serialization instant — while
    // the forward request and data reply travel as messages.
    // SCI-like lists keep dirty data with the owner on a remote read.
    const Node &hn = node(h, line);
    const bool sourceDirty = hn.dirty;
    Cycle exposeReady = t;
    if (sourceDirty)
        exposeReady = hooks_->onDirtyExpose(h, line, core, false, t);
    const Cycle floor = std::max(hn.dataReadyAt, exposeReady);
    const LineWords words = words_[hn.words];
    // Estimate until the reply lands (uncontended legs); subsequent
    // same-line forwards read this as their data-readiness floor.
    prependNode(core, line, words,
                std::max(t + bus_.idealLatency(bus_.bankNode(bankOf(line)),
                                               bus_.coreNode(h),
                                               cfg_.ctrlMsgBytes),
                         floor) +
                    bus_.idealLatency(bus_.coreNode(h), bus_.coreNode(core),
                                      lineBytes + cfg_.ctrlMsgBytes),
                t);
    if (sourceDirty)
        hooks_->onReadDependence(core, line, t);
    if (relinked)
        hooks_->onNodeRelinked(core, line, t);
    const StoreId value = words[wordOf(addr)];
    bus_.send(bus_.bankNode(bankOf(line)), bus_.coreNode(h),
              cfg_.ctrlMsgBytes, t,
              [this, h, core, holdsMshr, line, value, floor,
               done = std::move(done)]() mutable {
                  const Cycle dataAt = mshr_.reply(
                      bus_, bus_.coreNode(h), core, line, holdsMshr,
                      lineBytes + cfg_.ctrlMsgBytes,
                      std::max(eq_.now(), floor), std::move(done), value);
                  if (Node *n = findNode(core, line))
                      n->dataReadyAt = std::max(n->dataReadyAt, dataAt);
              });
    sampleListStats(line);
    return t + dirLatency_;
}

std::optional<Cycle>
SlcProtocol::storeTxn(CoreId core, Addr addr, StoreId store, StoreDone done,
                      bool holdsMshr, Cycle t)
{
    const LineAddr line = lineOf(addr);
    if (capacity_.inEvictBuffer(line)) {
        zombieWaiters_[line].push_back(
            retryStore(core, addr, store, std::move(done), holdsMshr));
        return t + dirLatency_;
    }
    // The line may have joined a frozen group while this request was in
    // flight: re-check the store gate at the serialization instant.
    if (!hooks_->storeMayCommit(core, line)) {
        hooks_->addStoreWaiter(
            core, line,
            retryStore(core, addr, store, std::move(done), holdsMshr));
        return t + dirLatency_;
    }
    if (ownNodeBlocks(core, line, t)) {
        nodeWaiters_[waiterKey(core, line)].push_back(
            retryStore(core, addr, store, std::move(done), holdsMshr));
        return t + dirLatency_;
    }
    // (A spliced stale clean member needs no onNodeRelinked here: the
    // store-commit hook below recomputes the dependence state.)

    allocateEntry(line, t);

    Node *n = findNode(core, line);
    bool deferred = false;
    CoreId exposedInDataPath = invalidCore;
    if (n && n->valid) {
        upgrades_.inc();
        if (n->evicted) {
            // Revive from the eviction buffer; the node changes place.
            reviveNode(core, line, t);
            n = &node(core, line);
        }
        if (n->bwd != invalidCore) {
            // Re-link as the new head above the current readers.  Our
            // copy is current (a newer writer would have invalidated
            // us), so only pointers move.
            Node moved = *n;
            const bool wasTail = (n->fwd == invalidCore);
            // Splice out of the old position.
            if (moved.bwd != invalidCore)
                node(moved.bwd, line).fwd = moved.fwd;
            if (moved.fwd != invalidCore)
                node(moved.fwd, line).bwd = moved.bwd;
            if (wasTail && moved.bwd != invalidCore)
                hooks_->onBecameTail(moved.bwd, line, t);
            // Prepend at the head.
            Entry &e = entry(line);
            const CoreId h = e.head;
            n->fwd = h;
            n->bwd = invalidCore;
            if (h != invalidCore)
                node(h, line).bwd = core;
            e.head = core;
        }
        // Permission grant travels as a message; the SB drains when it
        // lands (write permission already held functionally — OBS 3).
        const Cycle permissionAt = mshr_.reply(
            bus_, bus_.bankNode(bankOf(line)), core, line, holdsMshr,
            cfg_.ctrlMsgBytes, t, std::move(done));
        n->dataReadyAt = std::max(n->dataReadyAt, permissionAt);
    } else {
        misses_.inc();
        const CoreId h = entry(line).head;
        if (h == invalidCore || !node(h, line).valid) {
            // Fill from the LLC/NVM: blocking (the pipe reply frees the
            // line), same shape as the load-miss path.
            const bool fromNvm = !llc_.contains(line);
            LineWords words;
            if (fromNvm) {
                words = nvm_.durable(line);
                llc_.install(line, words, false, t);
            } else {
                words = llc_.lookup(line);
            }
            prependNode(core, line, words, 0, t);
            capacity_.setPinned(line, true);
            const Cycle freeNoEarlier = t + dirLatency_;
            const Cycle bankAt = llc_.access(line, t);
            eq_.schedule(bankAt, [this, core, holdsMshr, fromNvm, line,
                                  freeNoEarlier,
                                  done = std::move(done)]() mutable {
                const Cycle atBank =
                    fromNvm ? nvm_.read(line, eq_.now()) : eq_.now();
                const Cycle dataAt = mshr_.reply(
                    bus_, bus_.bankNode(bankOf(line)), core, line, holdsMshr,
                    lineBytes + cfg_.ctrlMsgBytes, atBank, std::move(done));
                if (Node *p = findNode(core, line))
                    p->dataReadyAt = std::max(p->dataReadyAt, dataAt);
                capacity_.setPinned(line, false);
                serializer_.releaseAt(line,
                                      std::max(eq_.now(), freeNoEarlier));
            });
            deferred = true;
        } else {
            // Forward from the current head; its invalidation folds
            // into the data reply (the exposedInDataPath marker).
            Node &hn = node(h, line);
            Cycle exposeReady = t;
            if (hn.dirty) {
                exposeReady = hooks_->onDirtyExpose(h, line, core, true, t);
                exposedInDataPath = h;
            }
            const Cycle floor = std::max(hn.dataReadyAt, exposeReady);
            const LineWords words = words_[hn.words];
            prependNode(core, line, words,
                        std::max(t + bus_.idealLatency(
                                         bus_.bankNode(bankOf(line)),
                                         bus_.coreNode(h), cfg_.ctrlMsgBytes),
                                 floor) +
                            bus_.idealLatency(bus_.coreNode(h),
                                              bus_.coreNode(core),
                                              lineBytes + cfg_.ctrlMsgBytes),
                        t);
            bus_.send(bus_.bankNode(bankOf(line)), bus_.coreNode(h),
                      cfg_.ctrlMsgBytes, t,
                      [this, h, core, holdsMshr, line, floor,
                       done = std::move(done)]() mutable {
                          const Cycle ready = std::max(eq_.now(), floor);
                          const Cycle dataAt = mshr_.reply(
                              bus_, bus_.coreNode(h), core, line, holdsMshr,
                              lineBytes + cfg_.ctrlMsgBytes, ready,
                              std::move(done));
                          if (Node *p = findNode(core, line))
                              p->dataReadyAt =
                                  std::max(p->dataReadyAt, dataAt);
                      });
        }
        n = &node(core, line);
    }
    invalidateBelow(core, line, t, exposedInDataPath);
    n = &node(core, line);
    trace::instant(trace::Event::SlcNewHead, core, t, line);
    words_[n->words][wordOf(addr)] = store;
    n->dirty = true;
    hooks_->onStoreCommitted(core, line, t);
    logStore(core, addr, store);
    sampleListStats(line);
    if (deferred)
        return std::nullopt;
    return t + dirLatency_;
}

// --------------------------------------------------------------------
// List manipulation
// --------------------------------------------------------------------

void
SlcProtocol::prependNode(CoreId core, LineAddr line, const LineWords &words,
                         Cycle dataReadyAt, Cycle t)
{
    Entry &e = entry(line);
    tsoper_assert(!findNode(core, line),
                  "prepend with existing node: core=", core);
    Node nn;
    nn.fwd = e.head;
    nn.words = words_.alloc(words);
    nn.dataReadyAt = dataReadyAt;
    if (e.head != invalidCore)
        node(e.head, line).bwd = core;
    e.head = core;
    insertResident(core, line, nn, t);
}

void
SlcProtocol::reviveNode(CoreId core, LineAddr line, Cycle t)
{
    EvictBuffer<Node> &evicted = caches_[static_cast<unsigned>(core)].evicted;
    Node revived = *evicted.find(line);
    evicted.erase(line);
    revived.evicted = false;
    insertResident(core, line, revived, t);
}

void
SlcProtocol::invalidateBelow(CoreId newHead, LineAddr line, Cycle t,
                             CoreId alreadyExposed)
{
    CoreId cur = node(newHead, line).fwd;
    while (cur != invalidCore) {
        Node *vp = findNode(cur, line);
        if (!vp)
            break;
        Node &v = *vp;
        const CoreId next = v.fwd;
        if (v.valid) {
            v.valid = false;
            trace::instant(trace::Event::SlcInvalidate, cur, t, line,
                           v.dirty);
            // Background invalidation: a routed fire-and-forget leg
            // (write permission was already granted at link-up, OBS 3,
            // so nothing waits on its arrival).
            bus_.arrival(bus_.bankNode(bankOf(line)), bus_.coreNode(cur),
                         cfg_.ctrlMsgBytes, t);
            if (v.dirty) {
                if (cur != alreadyExposed)
                    hooks_->onDirtyExpose(cur, line, newHead, true, t);
                if (hooks_->dropsInvalidDirty())
                    unlinkNode(cur, line, t);
            } else if (!hooks_->lineInUnpersistedAg(cur, line)) {
                unlinkNode(cur, line, t);
            }
        }
        cur = next;
    }
}

void
SlcProtocol::unlinkNode(CoreId core, LineAddr line, Cycle t)
{
    Node &n = node(core, line);
    Entry &e = entry(line);
    const CoreId fwd = n.fwd;
    const CoreId bwd = n.bwd;
    if (bwd != invalidCore)
        node(bwd, line).fwd = fwd;
    if (fwd != invalidCore)
        node(fwd, line).bwd = bwd;
    if (e.head == core)
        e.head = fwd;
    const bool wasTail = (fwd == invalidCore);
    words_.free(n.words);
    PrivateCache &cache = caches_[static_cast<unsigned>(core)];
    if (!cache.array.erase(line))
        cache.evicted.erase(line);
    if (wasTail && bwd != invalidCore) {
        hooks_->onBecameTail(bwd, line, t);
        // Cascade: a droppable invalid clean node that just became the
        // tail unlinks immediately (it has nothing to persist and
        // encodes no pb dependence).
        Node *b = findNode(bwd, line);
        if (b && !b->valid && !b->dirty &&
            !hooks_->lineInUnpersistedAg(bwd, line)) {
            unlinkNode(bwd, line, t);
        }
    }
    wake(nodeWaiters_, waiterKey(core, line));
    maybeReleaseEntry(line);
    sampleListStats(line);
}

void
SlcProtocol::insertResident(CoreId core, LineAddr line, const Node &n,
                            Cycle t)
{
    PrivateCache &cache = caches_[static_cast<unsigned>(core)];
    auto result = cache.array.insert(line);
    tsoper_assert(!result.noSpace, "private cache set fully pinned");
    *result.slot = n;
    if (result.evicted) {
        cache.evicted.park(result.victim, result.victimPayload);
        handleVictim(core, result.victim, t);
    }
}

void
SlcProtocol::handleVictim(CoreId core, LineAddr victim, Cycle t)
{
    Node &v = node(core, victim);
    tsoper_assert(!v.evicted, "victim already in eviction buffer");
    if (v.dirty) {
        if (hooks_->dropsInvalidDirty()) {
            // Baseline: write the version back if it is current.
            if (v.valid) {
                llc_.install(victim, words_[v.words], true, t);
                coherenceWb_.inc();
                bus_.arrival(bus_.coreNode(core),
                            bus_.bankNode(bankOf(victim)),
                            lineBytes + cfg_.ctrlMsgBytes, t);
                hooks_->onDirtyEvict(core, victim,
                                     ExposeReason::Eviction, t);
            }
            unlinkNode(core, victim, t);
        } else {
            // §III-B: freeze and persist immediately; the line stays in
            // the eviction buffer and still behaves as an AG member.
            v.evicted = true;
            evictBufHist_.add(evictionBufferOccupancy(core));
            hooks_->onDirtyEvict(core, victim, ExposeReason::Eviction, t);
        }
    } else if (hooks_->lineInUnpersistedAg(core, victim)) {
        // Clean AG member: keep linked for the pb dependence it encodes.
        v.evicted = true;
        evictBufHist_.add(evictionBufferOccupancy(core));
    } else {
        unlinkNode(core, victim, t);
    }
}

void
SlcProtocol::allocateEntry(LineAddr line, Cycle t)
{
    const auto result = capacity_.allocate(line);
    if (result.evicted)
        teardownEntry(result.victim, result.victimPayload, t);
}

void
SlcProtocol::teardownEntry(LineAddr victim, const Entry &entry, Cycle t)
{
    trace::instant(trace::Event::SlcDirEvict, invalidCore, t, victim);
    const Entry &e = capacity_.evictBufferEnter(victim, entry);
    // Invalidate every valid node; dirty versions freeze their AGs and
    // persist from the side buffer (§III-B).
    CoreId cur = e.head;
    std::vector<CoreId> order;
    while (cur != invalidCore) {
        order.push_back(cur);
        cur = node(cur, victim).fwd;
    }
    for (CoreId c : order) {
        Node *vp = findNode(c, victim);
        if (!vp || !vp->valid)
            continue;
        Node &v = *vp;
        v.valid = false;
        bus_.arrival(bus_.bankNode(bankOf(victim)), bus_.coreNode(c),
                    cfg_.ctrlMsgBytes, t);
        if (v.dirty) {
            if (hooks_->dropsInvalidDirty()) {
                llc_.install(victim, words_[v.words], true, t);
                coherenceWb_.inc();
                hooks_->onDirtyEvict(c, victim,
                                     ExposeReason::DirEviction, t);
                unlinkNode(c, victim, t);
            } else {
                hooks_->onDirtyEvict(c, victim, ExposeReason::DirEviction,
                                     t);
            }
        } else if (!hooks_->lineInUnpersistedAg(c, victim)) {
            unlinkNode(c, victim, t);
        }
    }
    maybeReleaseEntry(victim);
}

void
SlcProtocol::maybeReleaseEntry(LineAddr line)
{
    const Entry *e = capacity_.find(line);
    if (!e || e->head != invalidCore)
        return;
    capacity_.release(line);
    wake(zombieWaiters_, line);
}

void
SlcProtocol::wake(Waiters &waiters, std::uint64_t key)
{
    auto it = waiters.find(key);
    if (it == waiters.end())
        return;
    auto woken = std::move(it->second);
    waiters.erase(it);
    for (auto &w : woken)
        eq_.scheduleIn(0, std::move(w));
}

// --------------------------------------------------------------------
// Engine-facing API
// --------------------------------------------------------------------

bool
SlcProtocol::hasNode(CoreId core, LineAddr line) const
{
    return findNode(core, line) != nullptr;
}

bool
SlcProtocol::nodeValid(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    return n && n->valid;
}

bool
SlcProtocol::nodeDirty(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    return n && n->dirty;
}

CoreId
SlcProtocol::nodeFwd(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    tsoper_assert(n, "nodeFwd on absent node");
    return n->fwd;
}

CoreId
SlcProtocol::nodeBwd(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    tsoper_assert(n, "nodeBwd on absent node");
    return n->bwd;
}

bool
SlcProtocol::nodeIsPersistTail(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    tsoper_assert(n, "nodeIsPersistTail on absent node");
    CoreId cur = n->fwd;
    while (cur != invalidCore) {
        const Node *below = findNode(cur, line);
        tsoper_assert(below, "broken sharing list at core ", cur);
        if (below->dirty)
            return false;
        cur = below->fwd;
    }
    return true;
}

void
SlcProtocol::notifyPersistTailUpward(CoreId fromCore, LineAddr line,
                                     Cycle t)
{
    CoreId cur = fromCore;
    while (cur != invalidCore) {
        Node *n = findNode(cur, line);
        if (!n)
            break;
        const CoreId next = n->bwd;
        const bool dirty = n->dirty;
        hooks_->onBecameTail(cur, line, t);
        if (dirty)
            break; // The token stops at the next unpersisted version.
        cur = next;
    }
}

const LineWords &
SlcProtocol::nodeWords(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    tsoper_assert(n, "nodeWords on absent node");
    return words_[n->words];
}

void
SlcProtocol::persistComplete(CoreId core, LineAddr line, Cycle now)
{
    Node &n = node(core, line);
    tsoper_assert(nodeIsPersistTail(core, line),
                  "persist of a version with unpersisted predecessors "
                  "(core=", core, ")");
    tsoper_assert(n.dirty, "persistComplete of a clean version");
    // Parallel writeback: the LLC is updated with the persisted version
    // (§II-B — the LLC is constantly updated while the AGB enqueues).
    llc_.install(line, words_[n.words], true, now);
    coherenceWb_.inc();
    bus_.arrival(bus_.coreNode(core), bus_.bankNode(bankOf(line)),
                lineBytes + cfg_.ctrlMsgBytes, now);
    trace::instant(trace::Event::SlcPersist, core, now, line);
    const CoreId above = n.bwd;
    if (!n.valid || n.evicted) {
        unlinkNode(core, line, now);
    } else {
        n.dirty = false;
        sampleListStats(line);
    }
    // Pass the persist token headwards past clean sharers.
    notifyPersistTailUpward(above, line, now);
}

void
SlcProtocol::releaseCleanMember(CoreId core, LineAddr line, Cycle now)
{
    Node *n = findNode(core, line);
    if (!n)
        return;
    tsoper_assert(!n->dirty, "clean member is dirty");
    if (!n->valid || n->evicted) {
        if (n->fwd == invalidCore) {
            unlinkNode(core, line, now);
        } else {
            // A non-tail invalid clean node unlinks when it becomes
            // tail (the unlink cascade); with its membership gone, any
            // access that stalled on the frozen group may now proceed
            // by splicing it.
            wake(nodeWaiters_, waiterKey(core, line));
        }
    }
}

SlcProtocol::ListLengths
SlcProtocol::listLengths(LineAddr line) const
{
    ListLengths len;
    const Entry *e = capacity_.find(line);
    for (CoreId cur = e ? e->head : invalidCore; cur != invalidCore;) {
        const Node *n = findNode(cur, line);
        ++len.all;
        len.valid += n->valid ? 1 : 0;
        cur = n->fwd;
    }
    return len;
}

void
SlcProtocol::sampleListStats(LineAddr line)
{
    const ListLengths len = listLengths(line);
    persistListLen_.add(len.all);
    coherenceListLen_.add(len.valid);
}

ProtocolComplexity
SlcProtocol::complexity() const
{
    // Stable node states: {valid, dirty, evicted} combinations that can
    // occur (V, VD, VDe, VCe, I-pending-D, I-pending-De, I-clean-member,
    // plus absent) — the paper reports 15 base states for its SLICC SLC
    // vs 25 for MOESI; our transaction-atomic model needs no transient
    // states at all.
    return ProtocolComplexity{"SLC", 8, 4, 14};
}

} // namespace tsoper
