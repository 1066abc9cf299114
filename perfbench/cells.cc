#include "cells.hh"

#include <exception>
#include <memory>

#include "core/recovery.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

namespace perfbench
{

using namespace tsoper;

namespace
{

RunRequest
cell(const std::string &engine, const std::string &bench, double scale,
     std::uint64_t seed, double crashAt = 0.0)
{
    RunRequest r;
    r.engine = engine;
    r.bench = bench;
    r.scale = scale;
    r.seed = seed;
    r.crashAt = crashAt;
    r.check = crashAt > 0.0;
    r.id = engine + "/" + bench + "/x" + std::to_string(scale) + "/s" +
           std::to_string(seed) +
           (crashAt > 0.0 ? "/c" + std::to_string(crashAt) : "");
    return r;
}

std::vector<RunRequest>
grid(const std::vector<std::string> &engines,
     const std::vector<std::string> &benches, double scale,
     std::uint64_t seed)
{
    // Bench-major, so consecutive cells change engine and a slow host
    // phase is spread over every engine rather than landing on one.
    std::vector<RunRequest> v;
    for (const std::string &b : benches)
        for (const std::string &e : engines)
            v.push_back(cell(e, b, scale, seed));
    return v;
}

} // namespace

bool
makeWorkload(const std::string &name, std::uint64_t seed, bool quick,
             WorkloadDef *out)
{
    const double shrink = quick ? 0.05 : 1.0;
    const std::vector<std::string> fig11Engines{"baseline", "hwrp", "bsp",
                                                "stw", "tsoper"};
    out->name = name;
    if (name == "fig11") {
        out->cells = grid(fig11Engines, benchmarkNames(), 0.5 * shrink,
                          seed);
        return true;
    }
    if (name == "persist-heavy") {
        const std::vector<std::string> benches{"radix", "lu_ncb", "x264",
                                               "bodytrack"};
        out->cells = grid({"tsoper", "stw"}, benches, 2.0 * shrink, seed);
        out->references = grid({"baseline"}, benches, 2.0 * shrink, seed);
        return true;
    }
    if (name == "crash-audit") {
        const std::vector<std::string> benches{"radix", "dedup",
                                               "ocean_cp"};
        for (const std::string &b : benches)
            for (double at : {0.25, 0.5, 0.75})
                for (const char *e : {"tsoper", "stw", "bsp-slc-agb"})
                    out->cells.push_back(cell(e, b, 0.3 * shrink, seed, at));
        out->references = grid({"baseline"}, benches, 0.3 * shrink, seed);
        out->persistAudit = true;
        return true;
    }
    return false;
}

CellOutcome
runCell(const RunRequest &r, SpanLog *spans, std::int64_t cellIndex,
        std::int64_t parent)
{
    const Clock::time_point start = Clock::now();
    CellOutcome out;
    ScopedSpan cellSpan(spans, "cell", cellIndex, parent);
    SystemConfig cfg;
    if (!campaign::resolveConfig(r, &cfg, &out.detail))
        return out;
    try {
        Workload w;
        {
            ScopedSpan s(spans, "workload.generate", cellIndex);
            const Clock::time_point t = Clock::now();
            w = generateByName(r.bench, cfg.numCores, r.seed, r.scale);
            out.setupS += secondsSince(t);
        }
        const auto construct = [&] {
            ScopedSpan s(spans, "core.System", cellIndex);
            const Clock::time_point t = Clock::now();
            auto sys = std::make_unique<System>(cfg, w);
            out.setupS += secondsSince(t);
            return sys;
        };
        const auto destroy = [&](std::unique_ptr<System> &sys) {
            ScopedSpan s(spans, "core.destroy", cellIndex);
            sys.reset();
        };
        const PersistModel model = cfg.engine == EngineKind::HwRp
                                       ? PersistModel::RelaxedSfr
                                       : PersistModel::StrictTso;

        std::unique_ptr<System> sys;
        bool recovered = false;
        RecoveryReport report;
        if (r.crashAt > 0.0) {
            Cycle crashCycle = static_cast<Cycle>(r.crashAt);
            if (r.crashAt <= 1.0) {
                std::unique_ptr<System> timing = construct();
                {
                    ScopedSpan s(spans, "core.run", cellIndex);
                    out.cycles = timing->run(r.maxCycles);
                }
                crashCycle = static_cast<Cycle>(
                    static_cast<double>(out.cycles) * r.crashAt);
                out.simCycles += timing->stats().get("sys.exec_cycles");
                out.events += timing->eventQueue().executed();
                destroy(timing);
            }
            sys = construct();
            {
                ScopedSpan s(spans, "core.runUntilCrash", cellIndex);
                sys->runUntilCrash(crashCycle);
            }
            out.simCycles += crashCycle;
            out.events += sys->eventQueue().executed();
            ScopedSpan s(spans, "core.recover", cellIndex);
            report = recover(*sys, model);
            recovered = true;
        } else {
            sys = construct();
            {
                ScopedSpan s(spans, "core.run", cellIndex);
                out.cycles = sys->run(r.maxCycles);
            }
            out.simCycles += sys->stats().get("sys.exec_cycles");
            out.events += sys->eventQueue().executed();
            if (r.check) {
                ScopedSpan s(spans, "core.recover", cellIndex);
                report = recover(*sys, model);
                recovered = true;
            }
        }
        {
            ScopedSpan s(spans, "sim.statsToJson", cellIndex);
            out.stats = statsToJson(sys->stats());
        }
        destroy(sys);
        out.ok = true;
        if (recovered && (!report.audited || !report.consistency.ok)) {
            out.ok = false;
            out.detail = "recovery audit failed: " +
                         report.consistency.detail;
        }
    } catch (const std::exception &e) {
        out.ok = false;
        out.detail = e.what();
    }
    out.wallS = secondsSince(start);
    return out;
}

} // namespace perfbench
