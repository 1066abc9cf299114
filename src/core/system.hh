/**
 * @file
 * The System facade: the library's main public entry point.
 *
 * Builds a complete simulated machine from a SystemConfig (cores,
 * store buffers, private caches, NoC, LLC, directory, NVM, AGB,
 * coherence protocol, persistency engine), executes a Workload, and
 * exposes the statistics, the durable state and crash injection.
 *
 * Typical use (see examples/quickstart.cpp):
 *
 *   SystemConfig cfg = makeConfig(EngineKind::Tsoper);
 *   cfg.recordStores = true;
 *   Workload w = generateByName("ocean_cp", cfg.numCores, 42);
 *   System sys(cfg, w);
 *   sys.run();
 *   sys.stats().dump(std::cout);
 */

#ifndef TSOPER_CORE_SYSTEM_HH
#define TSOPER_CORE_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "coherence/mesi.hh"
#include "coherence/slc.hh"
#include "core/agb.hh"
#include "core/cpu.hh"
#include "core/engine.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "sim/store_log.hh"
#include "sim/trace.hh"
#include "sim/watchdog.hh"
#include "workload/trace.hh"

namespace tsoper
{

class System
{
  public:
    System(const SystemConfig &cfg, const Workload &workload);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /**
     * Run the workload to completion, then drain the persistency
     * engine.  @return the cycle all cores finished (the paper's
     * execution-time metric; the drain tail is excluded).
     *
     * The run is supervised by the progress watchdog (sim/watchdog.hh,
     * 2 M-event chunks): a protocol livelock, a drained event queue
     * with unfinished cores, or blowing the @p maxCycles budget all
     * throw HungError carrying dumpState() — which the campaign layer
     * classifies as RunStatus::Hung instead of an opaque wall-clock
     * timeout.  Once the wall clock passes @p deadline the run stops
     * at the next chunk boundary with DeadlineExceeded.
     */
    Cycle run(Cycle maxCycles = 4'000'000'000ull,
              Deadline deadline = noDeadline);

    /**
     * Run until @p crashAt, then stop the machine cold.  The livelock
     * and @p deadline checks of run() apply.
     * @return the durable state: the NVM image plus the engine's
     * persistent-domain overlay (committed AGB prefix).
     */
    std::unordered_map<LineAddr, LineWords>
    runUntilCrash(Cycle crashAt, Deadline deadline = noDeadline);

    /** Durable state at the current instant (NVM + overlay). */
    std::unordered_map<LineAddr, LineWords> durableImage() const;

    /** Cycle at which the last core finished (0 if not done). */
    Cycle finishCycle() const;

    bool allFinished() const;

    /**
     * Monotonic forward-progress signature: retired ops plus NVM
     * traffic.  Flat across billions of events == livelock.
     */
    std::uint64_t progressSignature() const;

    /** One-screen machine state (per-core progress, queue depth) for
     *  hung-run diagnostics. */
    std::string dumpState() const;

    StatsRegistry &stats() { return stats_; }
    const StatsRegistry &stats() const { return stats_; }
    const StoreLog &storeLog() const { return *log_; }
    const SystemConfig &config() const { return cfg_; }
    EventQueue &eventQueue() { return eq_; }
    /** This machine's trace bus; run() and runUntilCrash() bind it to
     *  the calling thread (a TraceSession configures it). */
    trace::Tracer &tracer() { return tracer_; }

    PersistEngine &engine() { return *engine_; }
    CoherenceProtocol &protocol() { return *proto_; }
    SlcProtocol *slc() { return slc_.get(); }
    MesiProtocol *mesi() { return mesi_.get(); }
    Agb *agb() { return agb_.get(); }
    Nvm &nvm() { return nvm_; }
    Llc &llc() { return llc_; }
    const Cpu &cpu(CoreId c) const { return *cpus_[(unsigned)c]; }

  private:
    SystemConfig cfg_;
    StatsRegistry stats_;
    /** The event kernel: every timed activity of every component is
     *  an event on this one queue. */
    EventQueue eq_;
    trace::Tracer tracer_;
    Mesh mesh_;
    Nvm nvm_;
    Llc llc_;
    std::unique_ptr<SlcProtocol> slc_;
    std::unique_ptr<MesiProtocol> mesi_;
    CoherenceProtocol *proto_ = nullptr;
    std::unique_ptr<Agb> agb_;
    std::unique_ptr<PersistEngine> engine_;
    std::unique_ptr<StoreLog> log_;
    SyncCoordinator sync_;
    std::vector<std::unique_ptr<Cpu>> cpus_;
    unsigned finishedCount_ = 0;
};

} // namespace tsoper

#endif // TSOPER_CORE_SYSTEM_HH
