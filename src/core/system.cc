#include "core/system.hh"

#include <algorithm>
#include <sstream>

#include "core/bsp_engine.hh"
#include "core/hwrp_engine.hh"
#include "core/stw_engine.hh"
#include "core/tsoper_engine.hh"
#include "sim/log.hh"
#include "sim/trace.hh"
#include "sim/watchdog.hh"

namespace tsoper
{

System::System(const SystemConfig &cfg, const Workload &workload)
    : cfg_(cfg), mesh_(cfg_, stats_), nvm_(cfg_, eq_, stats_),
      llc_(cfg_, nvm_, stats_), sync_(cfg_.numCores, eq_)
{
    cfg_.validate();
    tsoper_assert(workload.perCore.size() == cfg_.numCores,
                  "workload core count (", workload.perCore.size(),
                  ") != configured cores (", cfg_.numCores, ")");

    if (cfg_.protocol == ProtocolKind::Slc) {
        slc_ = std::make_unique<SlcProtocol>(cfg_, eq_, mesh_, llc_, nvm_,
                                             stats_);
        proto_ = slc_.get();
    } else {
        mesi_ = std::make_unique<MesiProtocol>(cfg_, eq_, mesh_, llc_,
                                               nvm_, stats_);
        proto_ = mesi_.get();
    }

    const bool needsAgb = cfg_.engine == EngineKind::Tsoper ||
                          cfg_.engine == EngineKind::Stw ||
                          cfg_.engine == EngineKind::BspSlcAgb;
    if (needsAgb)
        agb_ = std::make_unique<Agb>(cfg_, eq_, mesh_, nvm_, llc_,
                                     stats_);

    switch (cfg_.engine) {
      case EngineKind::None:
        engine_ = std::make_unique<NoPersistEngine>();
        break;
      case EngineKind::Tsoper:
        engine_ = std::make_unique<TsoperEngine>(cfg_, eq_, *slc_, *agb_,
                                                 stats_);
        break;
      case EngineKind::Stw:
        engine_ = std::make_unique<StwEngine>(cfg_, eq_, *slc_, *agb_,
                                              stats_);
        break;
      case EngineKind::Bsp:
        engine_ = std::make_unique<BspEngine>(cfg_, eq_, mesh_, llc_,
                                              nvm_, mesi_.get(), nullptr,
                                              nullptr, stats_,
                                              BspEngine::Mode::Bsp);
        break;
      case EngineKind::BspSlc:
        engine_ = std::make_unique<BspEngine>(cfg_, eq_, mesh_, llc_,
                                              nvm_, nullptr, slc_.get(),
                                              nullptr, stats_,
                                              BspEngine::Mode::BspSlc);
        break;
      case EngineKind::BspSlcAgb:
        engine_ = std::make_unique<BspEngine>(
            cfg_, eq_, mesh_, llc_, nvm_, nullptr, slc_.get(), agb_.get(),
            stats_, BspEngine::Mode::BspSlcAgb);
        break;
      case EngineKind::HwRp:
        tsoper_assert(slc_, "HW-RP runs on the SLC baseline");
        engine_ = std::make_unique<HwRpEngine>(cfg_, eq_, *slc_, nvm_,
                                               stats_);
        break;
    }
    proto_->setHooks(engine_.get());

    log_ = std::make_unique<StoreLog>(cfg_.numCores);
    log_->setEnabled(cfg_.recordStores);
    if (cfg_.recordStores)
        proto_->setStoreLog(log_.get());

    cpus_.reserve(cfg_.numCores);
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        cpus_.push_back(std::make_unique<Cpu>(
            static_cast<CoreId>(c), cfg_, eq_, *proto_, *engine_, sync_,
            cfg_.recordStores ? log_.get() : nullptr, stats_));
        cpus_.back()->setTrace(&workload.perCore[c]);
        cpus_.back()->onFinished([this] { ++finishedCount_; });
    }
}

System::~System() = default;

namespace
{

/** Chunk size and trip counts of every System run's watchdog. */
constexpr WatchdogConfig watchdog{};

} // namespace

Cycle
System::run(Cycle maxCycles, Deadline deadline)
{
    const trace::Scope scope(tracer_, eq_);
    const auto progress = [this] { return progressSignature(); };
    const auto dump = [this] { return dumpState(); };

    for (auto &cpu : cpus_)
        cpu->start();
    runGuarded(eq_, [this] { return allFinished(); }, maxCycles, watchdog,
               progress, dump, "execution", deadline);
    const Cycle finish = finishCycle();
    stats_.counter("sys.exec_cycles").inc(finish);
    bool drained = false;
    engine_->drain([&drained] { drained = true; });
    runGuarded(eq_, [&drained] { return drained; }, maxCycles, watchdog,
               progress, dump, "persistency drain", deadline);
    stats_.counter("sys.drain_cycles").inc(eq_.now() - finish);
    return finish;
}

std::unordered_map<LineAddr, LineWords>
System::runUntilCrash(Cycle crashAt, Deadline deadline)
{
    const trace::Scope scope(tracer_, eq_);
    for (auto &cpu : cpus_)
        cpu->start();
    // Reaching crashAt (or draining early) is normal completion here,
    // so only the livelock checks apply — a zero-delay event cycle
    // before the crash point would otherwise spin forever.
    runWatched(eq_, [] { return false; }, crashAt, watchdog,
               [this] { return progressSignature(); },
               [this] { return dumpState(); }, "pre-crash execution",
               deadline);
    return durableImage();
}

std::unordered_map<LineAddr, LineWords>
System::durableImage() const
{
    std::unordered_map<LineAddr, LineWords> image = nvm_.image();
    for (const auto &[line, words] : engine_->crashOverlay()) {
        auto [it, fresh] = image.try_emplace(line, zeroLine());
        (void)fresh;
        mergeWords(it->second, words);
    }
    return image;
}

Cycle
System::finishCycle() const
{
    Cycle finish = 0;
    for (const auto &cpu : cpus_)
        finish = std::max(finish, cpu->finishedAt());
    return finish;
}

bool
System::allFinished() const
{
    return finishedCount_ == cfg_.numCores;
}

std::uint64_t
System::progressSignature() const
{
    // Retired ops cover the execution phase; NVM traffic covers the
    // drain tail (cores are done, lines are still persisting).  Both
    // are monotonic, so a flat sum across a watchdog window means
    // nothing anywhere in the machine moved.
    std::uint64_t sig = finishedCount_;
    for (const auto &cpu : cpus_)
        sig += cpu->opsRetired() + cpu->storesIssued();
    sig += stats_.get("nvm.writes_done") + stats_.get("nvm.reads");
    return sig;
}

std::string
System::dumpState() const
{
    std::ostringstream os;
    os << "machine state: engine=" << toString(cfg_.engine)
       << " protocol=" << toString(cfg_.protocol) << " cycle="
       << eq_.now() << " events=" << eq_.executed()
       << " pending=" << eq_.pending() << "\n";
    for (unsigned c = 0; c < cfg_.numCores; ++c) {
        const Cpu &cpu = *cpus_[c];
        os << "  core " << c << ": " << cpu.opsRetired() << "/"
           << cpu.traceOps() << " ops, " << cpu.storesIssued()
           << " stores issued, "
           << (cpu.finished()
                   ? "finished@" + std::to_string(cpu.finishedAt())
                   : std::string("running"))
           << "\n";
    }
    os << "  nvm: " << stats_.get("nvm.writes_issued") << " issued, "
       << stats_.get("nvm.writes_done") << " done, "
       << stats_.get("nvm.reads") << " reads";
    if (const std::string tail = tracer_.flightRecorderDump();
        !tail.empty())
        os << "\n" << tail;
    return os.str();
}

} // namespace tsoper
