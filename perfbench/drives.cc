#include "drives.hh"

#include <algorithm>
#include <memory>
#include <unordered_set>
#include <vector>

#include "coherence/mesi.hh"
#include "coherence/slc.hh"
#include "core/agb.hh"
#include "mem/llc.hh"
#include "mem/nvm.hh"
#include "mem/store_buffer.hh"
#include "noc/mesh.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "workload/generators.hh"

namespace perfbench
{

using namespace tsoper;

namespace
{

struct MemOp
{
    CoreId core;
    Addr addr;
    bool store;
    Cycle at; ///< Issue cycle if the core only paid its compute.
};

using PerCore = std::vector<std::vector<MemOp>>;

/** Each core's loads and stores in program order. */
PerCore
memOps(const Workload &w)
{
    PerCore v(w.perCore.size());
    for (std::size_t c = 0; c < w.perCore.size(); ++c) {
        Cycle at = 0;
        for (const TraceOp &op : w.perCore[c]) {
            at += op.type == OpType::Compute ? op.arg : 1;
            if (op.type == OpType::Load || op.type == OpType::Store)
                v[c].push_back({static_cast<CoreId>(c), op.addr,
                                op.type == OpType::Store, at});
        }
    }
    return v;
}

/** Every core's ops in issue-cycle order: the order the timing-only
 *  layers (mesh, LLC, NVM) must see their calls in. */
std::vector<MemOp>
merged(const PerCore &perCore)
{
    std::vector<MemOp> all;
    for (const auto &mine : perCore)
        all.insert(all.end(), mine.begin(), mine.end());
    std::stable_sort(all.begin(), all.end(),
                     [](const MemOp &a, const MemOp &b) {
                         return a.at < b.at;
                     });
    return all;
}

/**
 * Each core's atomic groups as the trace suggests them: the distinct
 * lines it stores to between two synchronisation points, cut at the
 * configured AG size cap.
 */
std::vector<std::vector<std::vector<LineAddr>>>
lineGroups(const Workload &w, unsigned maxLines)
{
    std::vector<std::vector<std::vector<LineAddr>>> groups(
        w.perCore.size());
    for (std::size_t c = 0; c < w.perCore.size(); ++c) {
        std::vector<LineAddr> open;
        std::unordered_set<LineAddr> members;
        const auto cut = [&] {
            if (!open.empty())
                groups[c].push_back(std::move(open));
            open.clear();
            members.clear();
        };
        for (const TraceOp &op : w.perCore[c]) {
            if (op.type == OpType::Store) {
                if (members.insert(lineOf(op.addr)).second)
                    open.push_back(lineOf(op.addr));
                if (open.size() == maxLines)
                    cut();
            } else if (op.type == OpType::LockRel ||
                       op.type == OpType::Barrier ||
                       op.type == OpType::Marker) {
                cut();
            }
        }
        cut();
    }
    return groups;
}

LineWords
wordsOf(StoreId id)
{
    LineWords w = zeroLine();
    w[0] = id;
    return w;
}

/** The components a bare layer sits on. */
struct Rig
{
    explicit Rig(const SystemConfig &c)
        : cfg(c), mesh(cfg, stats), nvm(cfg, eq, stats),
          llc(cfg, nvm, stats)
    {
    }

    SystemConfig cfg;
    EventQueue eq;
    StatsRegistry stats;
    Mesh mesh;
    Nvm nvm;
    Llc llc;
};

/** One self-rescheduling event chain per core, spaced like its ops. */
struct Chain
{
    EventQueue *eq;
    const std::vector<MemOp> *ops;
    std::size_t i;

    void
    operator()() const
    {
        if (i + 1 < ops->size())
            eq->scheduleIn((*ops)[i + 1].at - (*ops)[i].at,
                           Chain{eq, ops, i + 1});
    }
};

std::uint64_t
driveKernel(const PerCore &perCore, SpanLog &spans)
{
    EventQueue eq;
    ScopedSpan s(&spans, "drive.eventqueue");
    for (const auto &mine : perCore)
        if (!mine.empty())
            eq.schedule(mine.front().at, Chain{&eq, &mine, 0});
    const Cycle end = eq.run();
    s.setOps(eq.executed());
    return end;
}

std::uint64_t
driveMesh(const SystemConfig &cfg, const std::vector<MemOp> &all,
          SpanLog &spans)
{
    Rig rig(cfg);
    std::uint64_t sum = 0;
    ScopedSpan s(&spans, "drive.mesh");
    for (const MemOp &op : all) {
        const int core = rig.mesh.coreNode(op.core);
        const int bank = rig.mesh.bankNode(rig.llc.bankOf(lineOf(op.addr)));
        const unsigned data = lineBytes + cfg.ctrlMsgBytes;
        const Cycle arrive = rig.mesh.route(
            core, bank, op.store ? data : cfg.ctrlMsgBytes, op.at);
        sum += rig.mesh.route(bank, core,
                              op.store ? cfg.ctrlMsgBytes : data,
                              arrive + cfg.llcLatency);
    }
    s.setOps(2 * all.size());
    return sum;
}

std::uint64_t
driveLlc(const SystemConfig &cfg, const std::vector<MemOp> &all,
         SpanLog &spans)
{
    Rig rig(cfg);
    std::uint64_t sum = 0;
    std::uint64_t seq = 0;
    ScopedSpan s(&spans, "drive.llc");
    for (const MemOp &op : all) {
        const LineAddr line = lineOf(op.addr);
        sum += rig.llc.access(line, op.at);
        if (!rig.llc.contains(line))
            rig.llc.install(line,
                            op.store ? wordsOf(seq++) : zeroLine(),
                            op.store, op.at);
        else if (op.store)
            rig.llc.merge(line, wordsOf(seq++), true, op.at);
    }
    sum += rig.eq.run();
    s.setOps(all.size());
    return sum;
}

std::uint64_t
driveNvm(const SystemConfig &cfg, const std::vector<MemOp> &all,
         SpanLog &spans)
{
    Rig rig(cfg);
    std::uint64_t sum = 0;
    std::uint64_t seq = 0;
    ScopedSpan s(&spans, "drive.nvm");
    for (const MemOp &op : all) {
        const LineAddr line = lineOf(op.addr);
        sum += op.store ? rig.nvm.write(line, wordsOf(seq++), op.at)
                        : rig.nvm.read(line, op.at);
    }
    sum += rig.eq.run();
    s.setOps(all.size());
    return sum;
}

std::uint64_t
driveStoreBuffer(const SystemConfig &cfg, const PerCore &perCore,
                 SpanLog &spans)
{
    std::uint64_t sum = 0;
    std::uint64_t ops = 0;
    ScopedSpan s(&spans, "drive.storebuffer");
    for (std::size_t c = 0; c < perCore.size(); ++c) {
        StoreBuffer sb(cfg.storeBufferEntries, static_cast<CoreId>(c));
        std::uint64_t seq = 0;
        for (const MemOp &op : perCore[c]) {
            if (op.store) {
                if (sb.full())
                    sb.pop(op.at);
                sb.push(op.addr, makeStoreId(op.core, seq++), op.at);
            } else {
                sum += sb.forward(op.addr).value_or(0);
                sum += sb.containsLine(lineOf(op.addr));
            }
        }
        ops += perCore[c].size();
    }
    s.setOps(ops);
    return sum;
}

/** Closed loop per core: each op issues when the previous completes. */
class ProtocolReplay
{
  public:
    ProtocolReplay(CoherenceProtocol &proto, EventQueue &eq,
                   const PerCore &perCore)
        : proto_(proto), eq_(eq), perCore_(perCore),
          next_(perCore.size(), 0)
    {
    }

    ProtocolReplay(const ProtocolReplay &) = delete;
    ProtocolReplay &operator=(const ProtocolReplay &) = delete;

    std::uint64_t
    run()
    {
        for (std::size_t c = 0; c < perCore_.size(); ++c)
            issue(static_cast<CoreId>(c));
        eq_.run();
        return completed_;
    }

  private:
    void
    issue(CoreId c)
    {
        const std::size_t i = next_[static_cast<std::size_t>(c)]++;
        const auto &mine = perCore_[static_cast<std::size_t>(c)];
        if (i >= mine.size())
            return;
        const auto then = [this, c](Cycle at) {
            ++completed_;
            eq_.schedule(std::max(at, eq_.now()), [this, c] { issue(c); });
        };
        if (mine[i].store)
            proto_.store(c, mine[i].addr, makeStoreId(c, i), then);
        else
            proto_.load(c, mine[i].addr,
                        [then](Cycle at, StoreId) { then(at); });
    }

    CoherenceProtocol &proto_;
    EventQueue &eq_;
    const PerCore &perCore_;
    std::vector<std::size_t> next_;
    std::uint64_t completed_ = 0;
};

template <class Protocol>
std::uint64_t
driveProtocol(const SystemConfig &cfg, const PerCore &perCore,
              const char *name, SpanLog &spans)
{
    Rig rig(cfg);
    Protocol proto(rig.cfg, rig.eq, rig.mesh, rig.llc, rig.nvm, rig.stats);
    CoherenceProtocol &iface = proto;
    ProtocolReplay replay(iface, rig.eq, perCore);
    ScopedSpan s(&spans, name);
    const std::uint64_t done = replay.run();
    s.setOps(done);
    return done + rig.eq.now();
}

/** Closed loop per core: a core requests its next group once every
 *  line of the previous one is in the persistent domain. */
class AgbReplay
{
  public:
    AgbReplay(Agb &agb, EventQueue &eq,
              const std::vector<std::vector<std::vector<LineAddr>>> &groups)
        : agb_(agb), eq_(eq), groups_(groups), next_(groups.size(), 0),
          handle_(groups.size(), 0), pending_(groups.size(), 0)
    {
    }

    AgbReplay(const AgbReplay &) = delete;
    AgbReplay &operator=(const AgbReplay &) = delete;

    std::uint64_t
    run()
    {
        for (std::size_t c = 0; c < groups_.size(); ++c)
            request(c);
        eq_.run();
        return buffered_;
    }

  private:
    void
    request(std::size_t c)
    {
        const std::size_t g = next_[c]++;
        if (g >= groups_[c].size())
            return;
        handle_[c] = agb_.requestAllocation(
            static_cast<CoreId>(c), groups_[c][g],
            [this, c, g](Cycle) { stream(c, g); });
    }

    void
    stream(std::size_t c, std::size_t g)
    {
        const auto &lines = groups_[c][g];
        pending_[c] = lines.size();
        for (LineAddr line : lines) {
            agb_.bufferLine(handle_[c], line, wordsOf(line),
                            [this, c](Cycle) {
                                ++buffered_;
                                if (--pending_[c] == 0)
                                    eq_.scheduleIn(0, [this, c] {
                                        request(c);
                                    });
                            });
        }
    }

    Agb &agb_;
    EventQueue &eq_;
    const std::vector<std::vector<std::vector<LineAddr>>> &groups_;
    std::vector<std::size_t> next_;
    std::vector<Agb::AgHandle> handle_; ///< Each core's open request.
    std::vector<std::size_t> pending_;  ///< Its lines not yet buffered.
    std::uint64_t buffered_ = 0;
};

std::uint64_t
driveAgb(const SystemConfig &cfg, const Workload &w, SpanLog &spans)
{
    Rig rig(cfg);
    Agb agb(rig.cfg, rig.eq, rig.mesh, rig.nvm, rig.llc, rig.stats);
    const auto groups = lineGroups(w, cfg.agMaxLines);
    AgbReplay replay(agb, rig.eq, groups);
    ScopedSpan s(&spans, "drive.agb");
    const std::uint64_t lines = replay.run();
    s.setOps(lines);
    return lines + rig.eq.now();
}

} // namespace

std::uint64_t
driveLayers(const std::string &bench, double scale, std::uint64_t seed,
            SpanLog &spans)
{
    const SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    const Workload w = generateByName(bench, cfg.numCores, seed, scale);
    const PerCore perCore = memOps(w);
    const std::vector<MemOp> all = merged(perCore);

    ScopedSpan s(&spans, "drive");
    std::uint64_t sum = driveKernel(perCore, spans);
    sum += driveMesh(cfg, all, spans);
    sum += driveLlc(cfg, all, spans);
    sum += driveNvm(cfg, all, spans);
    sum += driveStoreBuffer(cfg, perCore, spans);
    sum += driveProtocol<SlcProtocol>(cfg, perCore, "drive.slc", spans);
    sum += driveProtocol<MesiProtocol>(cfg, perCore, "drive.mesi", spans);
    sum += driveAgb(cfg, w, spans);
    return sum;
}

} // namespace perfbench
