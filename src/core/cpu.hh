/**
 * @file
 * In-order TSO core model plus the synchronization coordinator.
 *
 * Each core executes its trace one op at a time: compute ops burn
 * cycles, loads block until data returns (with store-buffer forwarding
 * and TSO load->load ordering by construction), stores retire into a
 * FIFO store buffer that drains to the private cache one store at a
 * time.  Lock acquires are modelled as atomic RMWs on the lock's
 * cacheline (draining the store buffer first, like x86 locked ops);
 * barriers drain the buffer, store to the barrier line, and rendezvous.
 * Sync traffic flows through the coherence protocol, so persist
 * dependencies thread through locks and barriers exactly as TSOPER
 * requires.
 *
 * The persistency engine gates progress at three points: global stalls
 * (STW), store-buffer drain (frozen-AG / closed-epoch lines), and sync
 * completion (HW-RP persist-queue backpressure).
 */

#ifndef TSOPER_CORE_CPU_HH
#define TSOPER_CORE_CPU_HH

#include <unordered_map>
#include <vector>

#include "coherence/protocol.hh"
#include "core/engine.hh"
#include "mem/store_buffer.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "sim/stats.hh"
#include "sim/store_log.hh"
#include "workload/trace.hh"

namespace tsoper
{

/** Simulator-level lock queues and barrier rendezvous. */
class SyncCoordinator
{
  public:
    SyncCoordinator(unsigned numCores, EventQueue &eq);

    /**
     * Try to take @p lock for @p core.  @return true if granted now;
     * otherwise @p grant is queued and runs when the lock frees.
     */
    bool acquire(unsigned lock, CoreId core, InlineCallback grant);

    void release(unsigned lock, CoreId core);

    /** Arrive at @p barrier; all cores' @p resume run on the last
     *  arrival. */
    void arrive(unsigned barrier, CoreId core, InlineCallback resume);

  private:
    struct Lock
    {
        bool held = false;
        CoreId owner = invalidCore;
        Fifo<std::pair<CoreId, InlineCallback>> waiters;
    };

    struct Barrier
    {
        unsigned arrived = 0;
        std::vector<InlineCallback> resumes;
    };

    unsigned numCores_;
    EventQueue &eq_;
    std::unordered_map<unsigned, Lock> locks_;
    std::unordered_map<unsigned, Barrier> barriers_;
};

class Cpu
{
  public:
    Cpu(CoreId id, const SystemConfig &cfg, EventQueue &eq,
        CoherenceProtocol &proto, PersistEngine &engine,
        SyncCoordinator &sync, StoreLog *log, StatsRegistry &stats);

    /** @p trace must outlive the run: continuations refer to its ops. */
    void setTrace(const Trace *trace) { trace_ = trace; }

    /** Schedule the first step at the current cycle. */
    void start();

    bool finished() const { return finished_; }
    Cycle finishedAt() const { return finishedAt_; }
    std::uint64_t storesIssued() const { return nextStoreSeq_; }

    /** Trace ops retired so far (the watchdog's progress signal). */
    std::uint64_t opsRetired() const { return pc_; }
    /** Total ops in this core's trace (0 before setTrace). */
    std::uint64_t
    traceOps() const
    {
        return trace_ ? trace_->size() : 0;
    }

    /** Invoked once when the core finishes its trace and drains. */
    void onFinished(InlineCallback fn) { finishedCb_ = std::move(fn); }

  private:
    void scheduleStep(Cycle delta);
    void step();
    void advance(Cycle delta = 1);
    /** Continue at absolute cycle @p at (>= now). */
    void advanceAt(Cycle at);

    void execLoad(const TraceOp &op);
    void execStore(const TraceOp &op);
    void execLockAcq(const TraceOp &op);
    void execLockAcqGranted(const TraceOp &op);
    void execLockRel(const TraceOp &op);
    void execBarrier(const TraceOp &op);

    /** Drain-at-sync helper: run @p then once the SB is empty. */
    void whenSbEmpty(InlineCallback then);

    /** A direct store's continuation; it rides inside a StoreDone. */
    using AfterStore = InlineFunction<void(), 24>;

    /**
     * Issue a store that bypasses the SB (lock/barrier lines), honouring
     * engine gating; @p then runs at the commit-completion cycle.
     */
    void issueDirectStore(Addr addr, AfterStore then);

    void tryDrainSb();
    void drainProgress();
    void checkFinished();

    StoreId newStoreId();
    void syncBoundary();

    CoreId id_;
    const SystemConfig &cfg_;
    EventQueue &eq_;
    CoherenceProtocol &proto_;
    PersistEngine &engine_;
    SyncCoordinator &sync_;
    StoreLog *log_;
    const Trace *trace_ = nullptr;

    StoreBuffer sb_;
    std::size_t pc_ = 0;
    std::uint64_t nextStoreSeq_ = 0;
    bool sbDraining_ = false;
    bool waitingOnSb_ = false; ///< step() blocked on SB progress.
    InlineCallback sbEmptyCb_;
    bool finished_ = false;
    Cycle finishedAt_ = 0;
    InlineCallback finishedCb_;

    Counter &loads_;
    Counter &stores_;
    Counter &computeCycles_;
    Counter &sbFullStalls_;
    Counter &sbLineStalls_;
    Counter &lockAcquires_;
    Counter &barriers_;
};

} // namespace tsoper

#endif // TSOPER_CORE_CPU_HH
