#include "coherence/mesi.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/log.hh"

namespace tsoper
{

MesiProtocol::MesiProtocol(const SystemConfig &cfg, EventQueue &eq,
                           Mesh &mesh, Llc &llc, Nvm &nvm,
                           StatsRegistry &stats)
    : cfg_(cfg), eq_(eq), bus_(eq, mesh), llc_(llc), nvm_(nvm),
      serializer_(eq), capacity_(cfg.dirEntriesPerBank, cfg.llcBanks,
                                 cfg.dirEvictBufferEntries, stats),
      txns_(stats),
      banks_(cfg.llcBanks),
      hits_(stats.counter("mesi.hits")),
      misses_(stats.counter("mesi.misses")),
      upgrades_(stats.counter("mesi.upgrades")),
      coherenceWb_(stats.counter("traffic.coherence_wb"))
{
    arrays_.reserve(cfg.numCores);
    for (unsigned c = 0; c < cfg.numCores; ++c)
        arrays_.emplace_back(cfg.privSets, cfg.privWays);
}

MesiProtocol::Node *
MesiProtocol::findNode(CoreId core, LineAddr line)
{
    if (Node *n = arrays_[static_cast<unsigned>(core)].find(line))
        return n;
    if (victim_.core == core && victim_.line == line)
        return &victim_.node;
    return nullptr;
}

const MesiProtocol::Node *
MesiProtocol::findNode(CoreId core, LineAddr line) const
{
    return const_cast<MesiProtocol *>(this)->findNode(core, line);
}

MesiProtocol::Node &
MesiProtocol::node(CoreId core, LineAddr line)
{
    Node *n = findNode(core, line);
    tsoper_assert(n, "missing MESI node: core=", core, " line=", line);
    return *n;
}

MesiProtocol::Entry &
MesiProtocol::entry(LineAddr line)
{
    Entry *e = capacity_.find(line);
    tsoper_assert(e, "missing MESI directory entry: line=", line);
    return *e;
}

void
MesiProtocol::load(CoreId core, Addr addr, LoadDone done)
{
    const LineAddr line = lineOf(addr);
    if (Node *n = findNode(core, line); n && n->st != St::I) {
        hits_.inc();
        arrays_[static_cast<unsigned>(core)].touch(n);
        const StoreId value = words_[n->words][wordOf(addr)];
        eq_.scheduleIn(cfg_.privLatency,
                       [this, value, done = std::move(done)]() mutable {
                           done(eq_.now(), value);
                       });
        return;
    }
    misses_.inc();
    submitTxn(core, line,
              [this, core, addr, done = std::move(done)](Cycle t) mutable {
                  return loadTxn(core, addr, std::move(done), t);
              },
              eq_.now() + cfg_.privLatency);
}

void
MesiProtocol::store(CoreId core, Addr addr, StoreId store, StoreDone done)
{
    const LineAddr line = lineOf(addr);
    if (Node *n = findNode(core, line);
        n && (n->st == St::M || n->st == St::E)) {
        hits_.inc();
        arrays_[static_cast<unsigned>(core)].touch(n);
        n->st = St::M;
        words_[n->words][wordOf(addr)] = store;
        hooks_->onStoreCommitted(core, line, eq_.now());
        logStore(core, addr, store);
        eq_.scheduleIn(cfg_.privLatency,
                       [this, done = std::move(done)]() mutable {
                           done(eq_.now());
                       });
        return;
    }
    submitTxn(core, line,
              [this, core, addr, store,
               done = std::move(done)](Cycle t) mutable {
                  return storeTxn(core, addr, store, std::move(done), t);
              },
              eq_.now() + cfg_.privLatency);
}

void
MesiProtocol::submitTxn(CoreId core, LineAddr line,
                        LineSerializer::Body body, Cycle departAt)
{
    bus_.send(bus_.coreNode(core), bus_.bankNode(bankOf(line)),
              cfg_.ctrlMsgBytes, departAt,
              [this, line, body = std::move(body)]() mutable {
                  serializer_.submit(line, std::move(body));
              });
}

std::optional<Cycle>
MesiProtocol::loadTxn(CoreId core, Addr addr, LoadDone done, Cycle t)
{
    const LineAddr line = lineOf(addr);
    if (Node *n = findNode(core, line); n && n->st != St::I) {
        // Raced: an earlier queued transaction already fetched it.
        const StoreId value = words_[n->words][wordOf(addr)];
        done(t + dirLatency_, value);
        return t + dirLatency_;
    }
    allocateEntry(line, t);
    Entry &e = entry(line);
    if (e.owner != invalidCore) {
        // Owner forward.  The downgrade commits now — the directory's
        // serialization instant — while the forward request and data
        // reply travel as messages; the line stays blocked until the
        // reply lands (conventional blocking directory).
        const CoreId o = e.owner;
        Node &on = node(o, line);
        const bool wasM = (on.st == St::M);
        Cycle exposeReady = t;
        if (wasM) {
            exposeReady = hooks_->onDirtyExpose(o, line, core, false, t);
            llc_.install(line, words_[on.words], true, t);
            coherenceWb_.inc();
        }
        const Cycle floor = std::max(on.dataReadyAt, exposeReady);
        const LineWords words = words_[on.words];
        on.st = St::S;
        e.sharers = bit(o) | bit(core);
        e.owner = invalidCore;
        // dataReadyAt is finalized before release by the reply leg.
        fillNode(core, line, St::S, words, t);
        capacity_.setPinned(line, true);
        const StoreId value = words[wordOf(addr)];
        bus_.send(bus_.bankNode(bankOf(line)), bus_.coreNode(o),
                  cfg_.ctrlMsgBytes, t,
                  [this, o, core, wasM, line, value, floor,
                   done = std::move(done)]() mutable {
                      const Cycle ready = std::max(eq_.now(), floor);
                      // The data reply leaves first (critical path)...
                      const Cycle dataAt = bus_.reply(
                          bus_.coreNode(o), core,
                          lineBytes + cfg_.ctrlMsgBytes, ready,
                          std::move(done), value);
                      if (wasM) {
                          // ...then the MESI downgrade writeback
                          // (traffic; the LLC contents moved at
                          // dispatch).
                          bus_.arrival(bus_.coreNode(o),
                                       bus_.bankNode(bankOf(line)),
                                       lineBytes + cfg_.ctrlMsgBytes,
                                       ready);
                      }
                      finishTxn(core, line, dataAt);
                  });
        return std::nullopt;
    }
    if (e.sharers != 0 || llc_.contains(line)) {
        if (llc_.contains(line)) {
            const LineWords words = llc_.lookup(line);
            e.sharers |= bit(core);
            fillNode(core, line, St::S, words, t);
            capacity_.setPinned(line, true);
            const StoreId value = words[wordOf(addr)];
            eq_.schedule(llc_.access(line, t),
                         [this, core, line, value,
                          done = std::move(done)]() mutable {
                const Cycle dataAt = bus_.reply(
                    bus_.bankNode(bankOf(line)), core,
                    lineBytes + cfg_.ctrlMsgBytes, eq_.now(), std::move(done),
                    value);
                finishTxn(core, line, dataAt);
            });
            return std::nullopt;
        }
        // LLC lost the shared copy; fetch from the first sharer.
        const CoreId s = std::countr_zero(e.sharers);
        Node &sn = node(s, line);
        const Cycle floor = sn.dataReadyAt;
        const LineWords words = words_[sn.words];
        llc_.install(line, words, false, t);
        e.sharers |= bit(core);
        fillNode(core, line, St::S, words, t);
        capacity_.setPinned(line, true);
        const StoreId value = words[wordOf(addr)];
        bus_.send(bus_.bankNode(bankOf(line)), bus_.coreNode(s),
                  cfg_.ctrlMsgBytes, t,
                  [this, s, core, line, value, floor,
                   done = std::move(done)]() mutable {
                      const Cycle ready = std::max(eq_.now(), floor);
                      const Cycle dataAt = bus_.reply(
                          bus_.coreNode(s), core,
                          lineBytes + cfg_.ctrlMsgBytes, ready,
                          std::move(done), value);
                      finishTxn(core, line, dataAt);
                  });
        return std::nullopt;
    }
    // Memory fill: E state (exclusive clean).  Contents resolve now;
    // the LLC bank pipe and an NVM read behind it supply the timing.
    const LineWords words = nvm_.durable(line);
    llc_.install(line, words, false, t);
    e.owner = core;
    fillNode(core, line, St::E, words, t);
    capacity_.setPinned(line, true);
    const StoreId value = words[wordOf(addr)];
    eq_.schedule(llc_.access(line, t), [this, core, line, value,
                                        done = std::move(done)]() mutable {
        const Cycle dataAt = bus_.reply(
            bus_.bankNode(bankOf(line)), core, lineBytes + cfg_.ctrlMsgBytes,
            nvm_.read(line, eq_.now()), std::move(done), value);
        finishTxn(core, line, dataAt);
    });
    return std::nullopt;
}

std::optional<Cycle>
MesiProtocol::storeTxn(CoreId core, Addr addr, StoreId store,
                       StoreDone done, Cycle t)
{
    const LineAddr line = lineOf(addr);
    // The store gate may have closed while the request was in flight:
    // re-check it at the serialization instant.
    if (!hooks_->storeMayCommit(core, line)) {
        hooks_->addStoreWaiter(core, line, [this, core, addr, store,
                                            done = std::move(done)]() mutable {
            this->store(core, addr, store, std::move(done));
        });
        return t + dirLatency_;
    }
    if (Node *n = findNode(core, line);
        n && (n->st == St::M || n->st == St::E)) {
        // Raced: already exclusive.
        n->st = St::M;
        words_[n->words][wordOf(addr)] = store;
        hooks_->onStoreCommitted(core, line, t);
        logStore(core, addr, store);
        done(t + dirLatency_);
        return t + dirLatency_;
    }
    allocateEntry(line, t);
    Entry &e = entry(line);
    Node *mine = findNode(core, line);
    if (e.owner != invalidCore && e.owner != core) {
        // Owner invalidation + data forward, as one message chain.
        const CoreId o = e.owner;
        Node &on = node(o, line);
        const bool wasM = (on.st == St::M);
        Cycle exposeReady = t;
        if (wasM)
            exposeReady = hooks_->onDirtyExpose(o, line, core, true, t);
        const Cycle floor = std::max(on.dataReadyAt, exposeReady);
        LineWords words = words_[on.words];
        dropNode(o, line);
        e.sharers = 0;
        e.owner = core;
        words[wordOf(addr)] = store;
        fillNode(core, line, St::M, words, t);
        hooks_->onStoreCommitted(core, line, t);
        logStore(core, addr, store);
        capacity_.setPinned(line, true);
        bus_.send(bus_.bankNode(bankOf(line)), bus_.coreNode(o),
                  cfg_.ctrlMsgBytes, t,
                  [this, o, core, line, floor,
                   done = std::move(done)]() mutable {
                      const Cycle ready = std::max(eq_.now(), floor);
                      const Cycle dataAt = bus_.reply(
                          bus_.coreNode(o), core,
                          lineBytes + cfg_.ctrlMsgBytes, ready,
                          std::move(done));
                      finishTxn(core, line, dataAt);
                  });
        return std::nullopt;
    }
    if (mine && mine->st == St::S) {
        // S -> M upgrade: a TxnTable entry collects one ack per
        // invalidated sharer plus the home's permission grant; the SB
        // drains when the last leg lands.
        upgrades_.inc();
        const unsigned numInv = std::popcount(e.sharers & ~bit(core));
        const TxnTable::Id id = txns_.begin(
            line, core, numInv + 1,
            [this, core, line, done = std::move(done)](Cycle readyAt) mutable {
                done(readyAt);
                finishTxn(core, line, readyAt);
            });
        sendInvalidations(line, core, t, id);
        bus_.send(bus_.bankNode(bankOf(line)), bus_.coreNode(core),
                  cfg_.ctrlMsgBytes, t,
                  [this, id] { txns_.legDone(id, eq_.now()); });
        e.sharers = 0;
        e.owner = core;
        mine->st = St::M;
        words_[mine->words][wordOf(addr)] = store;
        arrays_[static_cast<unsigned>(core)].touch(mine);
        hooks_->onStoreCommitted(core, line, t);
        logStore(core, addr, store);
        capacity_.setPinned(line, true);
        return std::nullopt;
    }
    misses_.inc();
    if (e.sharers != 0 || llc_.contains(line)) {
        // Data from the LLC (or a sharer when the LLC lost the copy)
        // plus one invalidation ack per sharer: the data leg and the
        // acks race, and the TxnTable folds their arrivals.
        LineWords words =
            llc_.contains(line)
                ? llc_.lookup(line)
                : words_[node(std::countr_zero(e.sharers), line).words];
        const unsigned numInv = std::popcount(e.sharers & ~bit(core));
        const TxnTable::Id id = txns_.begin(
            line, core, numInv + 1,
            [this, core, line, done = std::move(done)](Cycle readyAt) mutable {
                done(readyAt);
                finishTxn(core, line, readyAt);
            });
        sendInvalidations(line, core, t, id);
        e.sharers = 0;
        e.owner = core;
        words[wordOf(addr)] = store;
        fillNode(core, line, St::M, words, t);
        hooks_->onStoreCommitted(core, line, t);
        logStore(core, addr, store);
        capacity_.setPinned(line, true);
        eq_.schedule(llc_.access(line, t), [this, core, line, id] {
            bus_.send(bus_.bankNode(bankOf(line)), bus_.coreNode(core),
                      lineBytes + cfg_.ctrlMsgBytes, eq_.now(),
                      [this, id] { txns_.legDone(id, eq_.now()); });
        });
        return std::nullopt;
    }
    // Memory fill straight to M.
    LineWords words = nvm_.durable(line);
    llc_.install(line, words, false, t);
    e.sharers = 0;
    e.owner = core;
    words[wordOf(addr)] = store;
    fillNode(core, line, St::M, words, t);
    hooks_->onStoreCommitted(core, line, t);
    logStore(core, addr, store);
    capacity_.setPinned(line, true);
    eq_.schedule(llc_.access(line, t), [this, core, line,
                                        done = std::move(done)]() mutable {
        const Cycle dataAt = bus_.reply(
            bus_.bankNode(bankOf(line)), core, lineBytes + cfg_.ctrlMsgBytes,
            nvm_.read(line, eq_.now()), std::move(done));
        finishTxn(core, line, dataAt);
    });
    return std::nullopt;
}

void
MesiProtocol::finishTxn(CoreId core, LineAddr line, Cycle at)
{
    if (Node *n = findNode(core, line))
        n->dataReadyAt = std::max(n->dataReadyAt, at);
    capacity_.setPinned(line, false);
    serializer_.releaseAt(line, at);
}

void
MesiProtocol::sendInvalidations(LineAddr line, CoreId requester, Cycle t,
                                TxnTable::Id txn)
{
    Entry &e = entry(line);
    for (CoreId c = 0; c < static_cast<CoreId>(cfg_.numCores); ++c) {
        if (!(e.sharers & bit(c)) || c == requester)
            continue;
        // State commits now; the inv and its ack are timing legs.
        dropNode(c, line);
        bus_.send(bus_.bankNode(bankOf(line)), bus_.coreNode(c),
                  cfg_.ctrlMsgBytes, t, [this, c, requester, txn] {
                      bus_.send(bus_.coreNode(c), bus_.coreNode(requester),
                                cfg_.ctrlMsgBytes, eq_.now(), [this, txn] {
                                    txns_.legDone(txn, eq_.now());
                                });
                  });
    }
    e.sharers &= bit(requester);
}

void
MesiProtocol::fillNode(CoreId core, LineAddr line, St st,
                       const LineWords &words, Cycle t)
{
    auto result = arrays_[static_cast<unsigned>(core)].insert(line);
    tsoper_assert(!result.noSpace, "private cache set fully pinned");
    if (result.hit)
        words_.free(result.slot->words);
    *result.slot = Node{st, words_.alloc(words), t};
    if (result.evicted) {
        victim_ = Victim{core, result.victim, result.victimPayload};
        handleVictim(core, result.victim, t);
    }
}

void
MesiProtocol::dropNode(CoreId core, LineAddr line)
{
    CacheArray<Node> &array = arrays_[static_cast<unsigned>(core)];
    if (const Node *n = array.find(line)) {
        words_.free(n->words);
        array.erase(line);
    }
}

void
MesiProtocol::handleVictim(CoreId core, LineAddr victim, Cycle t)
{
    const Node &v = victim_.node;
    if (v.st == St::M) {
        llc_.install(victim, words_[v.words], true, t);
        coherenceWb_.inc();
        bus_.arrival(bus_.coreNode(core), bus_.bankNode(bankOf(victim)),
                    lineBytes + cfg_.ctrlMsgBytes, t);
        hooks_->onDirtyEvict(core, victim, ExposeReason::Eviction, t);
    } else {
        // Silent clean eviction; notify the directory (traffic only).
        bus_.arrival(bus_.coreNode(core), bus_.bankNode(bankOf(victim)),
                    cfg_.ctrlMsgBytes, t);
    }
    if (Entry *e = capacity_.find(victim)) {
        if (e->owner == core)
            e->owner = invalidCore;
        e->sharers &= ~bit(core);
    }
    words_.free(v.words);
    victim_.core = invalidCore;
    maybeReleaseEntry(victim);
}

void
MesiProtocol::allocateEntry(LineAddr line, Cycle t)
{
    const auto result = capacity_.allocate(line);
    if (result.evicted)
        teardownEntry(result.victim, result.victimPayload, t);
}

void
MesiProtocol::teardownEntry(LineAddr victim, const Entry &entry, Cycle t)
{
    if (entry.owner != invalidCore) {
        const CoreId o = entry.owner;
        const Node &on = node(o, victim);
        if (on.st == St::M) {
            llc_.install(victim, words_[on.words], true, t);
            coherenceWb_.inc();
            bus_.arrival(bus_.coreNode(o), bus_.bankNode(bankOf(victim)),
                        lineBytes + cfg_.ctrlMsgBytes, t);
            hooks_->onDirtyEvict(o, victim, ExposeReason::DirEviction, t);
        }
        dropNode(o, victim);
    }
    for (CoreId c = 0; c < static_cast<CoreId>(cfg_.numCores); ++c) {
        if (!(entry.sharers & bit(c)))
            continue;
        bus_.arrival(bus_.bankNode(bankOf(victim)), bus_.coreNode(c),
                    cfg_.ctrlMsgBytes, t);
        dropNode(c, victim);
    }
}

void
MesiProtocol::maybeReleaseEntry(LineAddr line)
{
    const Entry *e = capacity_.find(line);
    if (e && e->owner == invalidCore && e->sharers == 0)
        capacity_.release(line);
}

bool
MesiProtocol::isModified(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    return n && n->st == St::M;
}

const LineWords &
MesiProtocol::lineWords(CoreId core, LineAddr line) const
{
    const Node *n = findNode(core, line);
    tsoper_assert(n, "lineWords on absent node");
    return words_[n->words];
}

} // namespace tsoper
