#include "core/cpu.hh"

#include <algorithm>

#include "sim/log.hh"
#include "sim/trace.hh"

namespace tsoper
{

// ---------------------------------------------------------------------
// SyncCoordinator
// ---------------------------------------------------------------------

SyncCoordinator::SyncCoordinator(unsigned numCores, EventQueue &eq)
    : numCores_(numCores), eq_(eq)
{
}

bool
SyncCoordinator::acquire(unsigned lock, CoreId core, InlineCallback grant)
{
    Lock &l = locks_[lock];
    if (!l.held) {
        l.held = true;
        l.owner = core;
        return true;
    }
    l.waiters.push({core, std::move(grant)});
    return false;
}

void
SyncCoordinator::release(unsigned lock, CoreId core)
{
    Lock &l = locks_[lock];
    tsoper_assert(l.held && l.owner == core,
                  "release of lock ", lock, " not held by core ", core);
    if (l.waiters.empty()) {
        l.held = false;
        l.owner = invalidCore;
        return;
    }
    auto [next, grant] = l.waiters.pop();
    l.owner = next;
    eq_.scheduleIn(0, std::move(grant));
}

void
SyncCoordinator::arrive(unsigned barrier, CoreId core, InlineCallback resume)
{
    (void)core;
    Barrier &b = barriers_[barrier];
    b.resumes.push_back(std::move(resume));
    if (++b.arrived < numCores_)
        return;
    b.arrived = 0;
    for (auto &fn : b.resumes)
        eq_.scheduleIn(0, std::move(fn));
    b.resumes.clear();
}

// ---------------------------------------------------------------------
// Cpu
// ---------------------------------------------------------------------

Cpu::Cpu(CoreId id, const SystemConfig &cfg, EventQueue &eq,
         CoherenceProtocol &proto, PersistEngine &engine,
         SyncCoordinator &sync, StoreLog *log, StatsRegistry &stats)
    : id_(id), cfg_(cfg), eq_(eq), proto_(proto), engine_(engine),
      sync_(sync), log_(log), sb_(cfg.storeBufferEntries, id),
      loads_(stats.counter("cpu.loads")),
      stores_(stats.counter("cpu.stores")),
      computeCycles_(stats.counter("cpu.compute_cycles")),
      sbFullStalls_(stats.counter("cpu.sb_full_stalls")),
      sbLineStalls_(stats.counter("cpu.sb_line_stalls")),
      lockAcquires_(stats.counter("cpu.lock_acquires")),
      barriers_(stats.counter("cpu.barriers"))
{
}

void
Cpu::start()
{
    tsoper_assert(trace_, "start() without a trace");
    scheduleStep(0);
}

void
Cpu::scheduleStep(Cycle delta)
{
    eq_.scheduleIn(delta, [this] { step(); });
}

void
Cpu::advance(Cycle delta)
{
    ++pc_;
    scheduleStep(delta);
}

void
Cpu::advanceAt(Cycle at)
{
    ++pc_;
    eq_.schedule(std::max(at, eq_.now()), [this] { step(); });
}

void
Cpu::step()
{
    if (finished_)
        return;
    if (engine_.coreStalled(id_)) {
        engine_.addStallWaiter([this] { step(); });
        return;
    }
    if (pc_ >= trace_->size()) {
        checkFinished();
        return;
    }
    const TraceOp &op = (*trace_)[pc_];
    switch (op.type) {
      case OpType::Compute:
        computeCycles_.inc(op.arg);
        advance(std::max<Cycle>(1, op.arg));
        break;
      case OpType::Load:
        execLoad(op);
        break;
      case OpType::Store:
        execStore(op);
        break;
      case OpType::LockAcq:
        execLockAcq(op);
        break;
      case OpType::LockRel:
        execLockRel(op);
        break;
      case OpType::Barrier:
        execBarrier(op);
        break;
      case OpType::Marker:
        // §II-D marker stores travel the store stream: the marker takes
        // effect once every prior store has drained to the cache.
        whenSbEmpty([this] {
            engine_.onMarker(id_, eq_.now());
            advance(1);
        });
        break;
    }
}

void
Cpu::execLoad(const TraceOp &op)
{
    loads_.inc();
    if (sb_.forward(op.addr)) {
        // Store-to-load forwarding; observing our own store adds no
        // cross-thread dependence.
        advance(1);
        return;
    }
    if (sb_.containsLine(lineOf(op.addr))) {
        // A buffered store targets this line: wait for it to drain
        // (models MSHR merging; keeps one version per line in flight).
        sbLineStalls_.inc();
        waitingOnSb_ = true;
        tryDrainSb();
        return;
    }
    proto_.load(id_, op.addr, [this, &op](Cycle at, StoreId value) {
        if (log_)
            log_->loadObserved(id_, op.addr, value);
        advanceAt(at);
    });
}

void
Cpu::execStore(const TraceOp &op)
{
    if (sb_.full()) {
        sbFullStalls_.inc();
        waitingOnSb_ = true;
        tryDrainSb();
        return;
    }
    stores_.inc();
    const StoreId sid = newStoreId();
    if (log_)
        log_->storeIssued(id_, sid);
    sb_.push(op.addr, sid, eq_.now());
    tryDrainSb();
    advance(1);
}

StoreId
Cpu::newStoreId()
{
    return makeStoreId(id_, nextStoreSeq_++);
}

void
Cpu::syncBoundary()
{
    engine_.onSync(id_, eq_.now());
    if (log_)
        log_->sfrBoundary(id_);
}

void
Cpu::whenSbEmpty(InlineCallback then)
{
    if (sb_.empty() && !sbDraining_) {
        then();
        return;
    }
    tsoper_assert(!sbEmptyCb_, "nested whenSbEmpty");
    sbEmptyCb_ = std::move(then);
    tryDrainSb();
}

void
Cpu::issueDirectStore(Addr addr, AfterStore then)
{
    const bool stalled = engine_.coreStalled(id_);
    if (stalled || !engine_.storeMayCommit(id_, lineOf(addr))) {
        InlineCallback retry = [this, addr, then = std::move(then)]() mutable {
            issueDirectStore(addr, std::move(then));
        };
        if (stalled)
            engine_.addStallWaiter(std::move(retry));
        else
            engine_.addStoreWaiter(id_, lineOf(addr), std::move(retry));
        return;
    }
    stores_.inc();
    const StoreId sid = newStoreId();
    if (log_)
        log_->storeIssued(id_, sid);
    proto_.store(id_, addr, sid,
                 [this, then = std::move(then)](Cycle at) mutable {
                     eq_.schedule(std::max(at, eq_.now()), std::move(then));
                 });
}

void
Cpu::execLockAcq(const TraceOp &op)
{
    // Locked RMW: drain the store buffer first (x86 semantics), then
    // check HW-RP backpressure, then queue on the lock.  The SFR
    // boundary closes the pre-acquire region; the RMW store belongs to
    // the critical section's region (flushed at the release boundary).
    whenSbEmpty([this, &op] {
        syncBoundary();
        if (!engine_.syncMayProceed(id_)) {
            // SB stays empty while blocked (nothing issues meanwhile).
            engine_.addSyncWaiter(id_,
                                  [this, &op] { execLockAcqGranted(op); });
            return;
        }
        execLockAcqGranted(op);
    });
}

void
Cpu::execLockAcqGranted(const TraceOp &op)
{
    auto rmw = [this, &op] {
        lockAcquires_.inc();
        trace::instant(trace::Event::SyncOp, id_, eq_.now(), op.arg,
                       static_cast<unsigned>(
                           PersistEngine::SyncEvent::LockAcquire));
        engine_.onSyncEvent(id_, eq_.now(),
                            PersistEngine::SyncEvent::LockAcquire,
                            op.arg);
        proto_.load(id_, op.addr, [this, &op](Cycle at, StoreId value) {
            if (log_)
                log_->loadObserved(id_, op.addr, value);
            (void)at;
            issueDirectStore(op.addr, [this] { advanceAt(eq_.now()); });
        });
    };
    if (sync_.acquire(op.arg, id_, rmw))
        rmw();
}

void
Cpu::execLockRel(const TraceOp &op)
{
    // The release store is part of the critical section's region: it
    // commits *before* the SFR boundary fires, so it persists with the
    // batch the next acquirer orders behind.
    whenSbEmpty([this, &op] {
        if (!engine_.syncMayProceed(id_)) {
            engine_.addSyncWaiter(id_, [this, &op] { execLockRel(op); });
            return;
        }
        issueDirectStore(op.addr, [this, &op] {
            syncBoundary();
            engine_.onSyncEvent(id_, eq_.now(),
                                PersistEngine::SyncEvent::LockRelease,
                                op.arg);
            sync_.release(op.arg, id_);
            advanceAt(eq_.now());
        });
    });
}

void
Cpu::execBarrier(const TraceOp &op)
{
    // Like the release: the arrival-flag store precedes the boundary,
    // so the flag (and everything before it) persists with the
    // pre-barrier batch that post-barrier regions order behind.
    whenSbEmpty([this, &op] {
        if (!engine_.syncMayProceed(id_)) {
            engine_.addSyncWaiter(id_, [this, &op] { execBarrier(op); });
            return;
        }
        issueDirectStore(op.addr, [this, &op] {
            barriers_.inc();
            trace::instant(trace::Event::SyncOp, id_, eq_.now(), op.arg,
                           static_cast<unsigned>(
                               PersistEngine::SyncEvent::BarrierArrive));
            syncBoundary();
            engine_.onSyncEvent(id_, eq_.now(),
                                PersistEngine::SyncEvent::BarrierArrive,
                                op.arg);
            sync_.arrive(op.arg, id_, [this, &op] {
                engine_.onSyncEvent(
                    id_, eq_.now(),
                    PersistEngine::SyncEvent::BarrierResume, op.arg);
                proto_.load(id_, op.addr,
                            [this, &op](Cycle at, StoreId value) {
                    if (log_)
                        log_->loadObserved(id_, op.addr, value);
                    advanceAt(at);
                });
            });
        });
    });
}

void
Cpu::tryDrainSb()
{
    if (sbDraining_)
        return;
    if (sb_.empty()) {
        drainProgress();
        return;
    }
    if (engine_.coreStalled(id_)) {
        engine_.addStallWaiter([this] { tryDrainSb(); });
        return;
    }
    const StoreBuffer::Entry &head = sb_.front();
    const LineAddr line = lineOf(head.addr);
    if (!engine_.storeMayCommit(id_, line)) {
        engine_.addStoreWaiter(id_, line, [this] { tryDrainSb(); });
        return;
    }
    sbDraining_ = true;
    proto_.store(id_, head.addr, head.store, [this](Cycle at) {
        eq_.schedule(std::max(at, eq_.now()), [this] {
            sb_.pop(eq_.now());
            sbDraining_ = false;
            drainProgress();
            tryDrainSb();
        });
    });
}

void
Cpu::drainProgress()
{
    if (waitingOnSb_) {
        waitingOnSb_ = false;
        scheduleStep(0);
    }
    if (sbEmptyCb_ && sb_.empty() && !sbDraining_) {
        auto cb = std::move(sbEmptyCb_);
        cb();
    }
    checkFinished();
}

void
Cpu::checkFinished()
{
    if (finished_ || pc_ < trace_->size() || !sb_.empty() || sbDraining_)
        return;
    finished_ = true;
    finishedAt_ = eq_.now();
    if (finishedCb_)
        finishedCb_();
}

} // namespace tsoper
