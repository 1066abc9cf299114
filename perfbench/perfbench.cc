/**
 * @file
 * The repo benchmark's measuring binary.  It runs one workload's cells
 * for a fixed time and prints one JSON document of raw samples, which
 * perfbench/run.py turns into the metrics BENCHMARK.json names.
 *
 *   perfbench --workload=NAME [--seed=N] [--seconds=S] [--trace]
 *             [--spans=FILE] [--quick]
 *   perfbench --probe
 *
 * A run has three parts:
 *  1. the correctness pass: every cell once through campaign::runOne,
 *     whose status and audits must pass and whose statistics become
 *     the cell's reference; it also warms the allocator;
 *  2. timed passes over every cell, through runCell, until --seconds
 *     have elapsed; after each pass every cell's statistics must match
 *     runOne's byte for byte.  With --trace every other pass records
 *     spans;
 *  3. with --trace only: three passes through runCampaign on a pool of
 *     jobs, runOne with the persist audit and with every trace
 *     category on against runOne with both off, and the bare layer
 *     drives (drives.hh).
 *
 * --probe runs only the host-speed probe and prints its JSON; it is a
 * process of its own so that its memory stays out of a measured run's
 * peak.
 *
 * Exit codes: 0 = every check passed, 1 = a check failed, 2 = bad
 * usage or the span file could not be written.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "campaign/run_request.hh"
#include "campaign/runner.hh"
#include "cells.hh"
#include "drives.hh"
#include "sim/json.hh"
#include "spans.hh"

using namespace perfbench;
using tsoper::Json;
namespace campaign = tsoper::campaign;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spansPath;
    bool quick = false;
    bool probe = false;
};

bool
parseArgs(int argc, char **argv, Options *opt)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&](const char *key, std::string *out) {
            const std::string prefix = std::string(key) + "=";
            if (a.rfind(prefix, 0) != 0)
                return false;
            *out = a.substr(prefix.size());
            return true;
        };
        std::string v;
        if (value("--workload", &v)) {
            opt->workload = v;
        } else if (value("--seed", &v)) {
            opt->seed = std::strtoull(v.c_str(), nullptr, 10);
        } else if (value("--seconds", &v)) {
            opt->seconds = std::strtod(v.c_str(), nullptr);
        } else if (value("--spans", &v)) {
            opt->spansPath = v;
        } else if (a == "--trace") {
            opt->trace = true;
        } else if (a == "--quick") {
            opt->quick = true;
        } else if (a == "--probe") {
            opt->probe = true;
        } else {
            std::cerr << "perfbench: unknown argument " << a << "\n";
            return false;
        }
    }
    return (opt->probe || !opt->workload.empty()) && opt->seconds >= 0.0;
}

/**
 * A fixed amount of host work owned by the benchmark, so a reader can
 * tell a slow host phase from a slow simulator: integer work on a
 * cache-resident table (ms), and the latency of a dependent random walk
 * over 32 MiB (ns per step), which tracks memory-system contention.
 * Each is the fastest of three tries.
 */
Json
hostProbe(std::uint64_t *sink)
{
    std::uint64_t x = 88172645463325252ull;
    const auto next = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    // One random cycle through every slot (Sattolo's shuffle).
    std::vector<std::uint32_t> ring(8u << 20);
    for (std::uint32_t i = 0; i < ring.size(); ++i)
        ring[i] = i;
    for (std::uint32_t i = static_cast<std::uint32_t>(ring.size()) - 1;
         i > 0; --i)
        std::swap(ring[i], ring[next() % i]);
    std::vector<std::uint32_t> table(1u << 16, 0);

    double aluMs = 1e30, memNs = 1e30;
    for (int t = 0; t < 3; ++t) {
        Clock::time_point start = Clock::now();
        for (std::uint32_t i = 0; i < (1u << 23); ++i) {
            const std::uint64_t v = next();
            table[v & 0xffff] += static_cast<std::uint32_t>(v >> 32);
        }
        aluMs = std::min(aluMs, secondsSince(start) * 1e3);

        constexpr std::uint32_t steps = 1u << 18;
        std::uint32_t at = 0;
        start = Clock::now();
        for (std::uint32_t i = 0; i < steps; ++i)
            at = ring[at];
        memNs = std::min(memNs, secondsSince(start) * 1e9 / steps);
        *sink += at;
    }
    for (std::uint32_t v : table)
        *sink += v;
    Json j = Json::object();
    j.set("alu_ms", Json(aluMs)).set("mem_ns", Json(memNs));
    return j;
}

double
peakRssMiB()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Failure accounting shared by every check of the run. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Json failures = Json::array();

    void
    check(bool ok, const std::string &what)
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (failures.size() < 20)
                failures.push(Json(what));
        }
    }
};

/** Counter and histogram totals over the cells' statistics. */
struct StatTotals
{
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> hists;

    void
    add(const Json &stats)
    {
        if (const Json *c = stats.find("counters"))
            for (const auto &[name, v] : c->members())
                counters[name] += v.asUint();
        if (const Json *h = stats.find("histograms")) {
            for (const auto &[name, v] : h->members()) {
                hists[name].first += v["samples"].asUint();
                hists[name].second += v["total"].asUint();
            }
        }
    }

    Json
    toJson() const
    {
        Json c = Json::object();
        for (const auto &[name, v] : counters)
            c.set(name, Json(v));
        Json h = Json::object();
        for (const auto &[name, v] : hists) {
            Json e = Json::object();
            e.set("samples", Json(v.first)).set("total", Json(v.second));
            h.set(name, std::move(e));
        }
        Json j = Json::object();
        j.set("counters", std::move(c)).set("histograms", std::move(h));
        return j;
    }
};

Json
cellJson(const RunRequest &r, const CellOutcome &o)
{
    Json j = Json::object();
    j.set("id", Json(r.id))
        .set("engine", Json(r.engine))
        .set("bench", Json(r.bench))
        .set("crash_at", Json(r.crashAt))
        .set("cycles", Json(o.cycles))
        .set("sim_cycles", Json(o.simCycles))
        .set("events", Json(o.events));
    return j;
}

/** What runOne produced for a cell: the reference every timed run of
 *  the cell must reproduce. */
struct Expected
{
    std::string stats; ///< statsToJson, serialised.
    std::uint64_t cycles = 0;
};

/** Check runOne's result @p res for @p r and keep it as the reference. */
Expected
judge(const RunRequest &r, const campaign::RunResult &res,
      bool persistAudit, Tally &tally, StatTotals *totals)
{
    std::string why;
    if (res.status != campaign::RunStatus::Ok)
        why = std::string("runOne ") + campaign::toString(res.status) +
              ": " + res.detail;
    else if (persistAudit && !(res.persistAudited && res.persistAuditOk))
        why = "persist audit failed: " + res.persistAuditDetail;
    tally.check(why.empty(), r.id + ": " + why);
    if (totals)
        totals->add(res.stats);
    return {res.stats.dump(), res.cycles};
}

/** Campaign options for @p jobs in-process jobs: no timeout (a cell
 *  then runs on the job itself) and no retries. */
campaign::RunnerOptions
poolOptions(unsigned jobs)
{
    campaign::RunnerOptions ro;
    ro.jobs = jobs;
    ro.timeout = std::chrono::milliseconds(0);
    ro.retries = 0;
    return ro;
}

/** Jobs of the campaign pool the traced run measures: min(4, nproc),
 *  and at least 2 so that it is a pool. */
unsigned
poolJobs()
{
    return std::clamp(std::thread::hardware_concurrency(), 2u, 4u);
}

/**
 * One timed pass over every cell, one after another, or through
 * runCampaign when @p jobs > 1; spans go to @p spans if set.  Once the
 * pass is timed, every cell's statistics are compared with runOne's.
 * The first pass fills @p cellsOut.
 */
Json
timedPass(const WorkloadDef &def, unsigned jobs,
          const std::unordered_map<std::string, std::size_t> &index,
          const std::vector<Expected> &expected, SpanLog *spans,
          Tally &tally, Json *cellsOut)
{
    std::vector<CellOutcome> outs(def.cells.size());
    double wall = 0.0;
    {
        ScopedSpan pass(spans, "pass");
        const Clock::time_point start = Clock::now();
        if (jobs > 1) {
            campaign::RunnerOptions ro = poolOptions(jobs);
            const std::int64_t parent = pass.id();
            ro.cellFn = [&](const RunRequest &r) {
                const std::size_t i = index.at(r.id);
                outs[i] = runCell(r, spans, static_cast<std::int64_t>(i),
                                  parent);
                campaign::RunResult res;
                res.status = outs[i].ok ? campaign::RunStatus::Ok
                                        : campaign::RunStatus::Crashed;
                res.detail = outs[i].detail;
                res.cycles = outs[i].cycles;
                return res;
            };
            const campaign::CampaignReport report =
                campaign::runCampaign(def.name, def.cells, ro);
            tally.check(report.allOk(), "campaign: " + report.summary());
        } else {
            for (std::size_t i = 0; i < def.cells.size(); ++i)
                outs[i] = runCell(def.cells[i], spans,
                                  static_cast<std::int64_t>(i), pass.id());
        }
        wall = secondsSince(start);
    }

    Json cellS = Json::array();
    Json cellSetupS = Json::array();
    for (std::size_t i = 0; i < outs.size(); ++i) {
        const CellOutcome &o = outs[i];
        const std::string &id = def.cells[i].id;
        if (!o.ok)
            tally.check(false, id + ": " + o.detail);
        else
            tally.check(o.cycles == expected[i].cycles &&
                            o.stats.dump() == expected[i].stats,
                        id + ": statistics differ from runOne's");
        if (cellsOut->size() < outs.size())
            cellsOut->push(cellJson(def.cells[i], o));
        cellS.push(Json(o.wallS));
        cellSetupS.push(Json(o.setupS));
    }
    Json j = Json::object();
    j.set("traced", Json(spans != nullptr))
        .set("jobs", Json(jobs))
        .set("wall_s", Json(wall))
        .set("cell_s", std::move(cellS))
        .set("cell_setup_s", std::move(cellSetupS));
    return j;
}

/** Up to @p n elements of @p v, evenly spread. */
template <class T>
std::vector<T>
spread(const std::vector<T> &v, std::size_t n)
{
    if (v.size() <= n)
        return v;
    std::vector<T> out;
    for (std::size_t k = 0; k < n; ++k)
        out.push_back(v[k * v.size() / n]);
    return out;
}

/** runOne plain, with the persist audit, and with every trace
 *  category on, over a sample of cells, three rounds.  Each must end
 *  `ok`. */
void
runOneVariants(const WorkloadDef &def, SpanLog &spans, Tally &tally)
{
    const std::vector<RunRequest> sample = spread(def.cells, 6);
    for (int round = 0; round < 3; ++round) {
        ScopedSpan s(&spans, "runone.round");
        for (const RunRequest &r : sample) {
            RunRequest audit = r;
            audit.auditPersists = true;
            RunRequest traced = r;
            traced.traceCategories = "all";
            const std::pair<const char *, const RunRequest *> variants[] = {
                {"runone.off", &r},
                {"runone.audit", &audit},
                {"runone.trace", &traced}};
            for (const auto &[name, req] : variants) {
                campaign::RunResult res;
                {
                    ScopedSpan v(&spans, name);
                    res = campaign::runOne(*req);
                }
                tally.check(res.status == campaign::RunStatus::Ok,
                            std::string(name) + " " + r.id + ": " +
                                campaign::toString(res.status) + ": " +
                                res.detail);
            }
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, &opt)) {
        std::cerr << "usage: perfbench --workload=NAME [--seed=N] "
                     "[--seconds=S] [--trace] [--spans=FILE] [--quick]\n"
                     "       perfbench --probe\n";
        return 2;
    }
    std::uint64_t sink = 0;
    if (opt.probe) {
        Json j = hostProbe(&sink);
        j.set("sink", Json(sink));
        std::cout << j.dump() << "\n";
        return 0;
    }
    WorkloadDef def;
    if (!makeWorkload(opt.workload, opt.seed, opt.quick, &def)) {
        std::cerr << "perfbench: unknown workload " << opt.workload << "\n";
        return 2;
    }
    std::unique_ptr<SpanLog> spans;
    if (opt.trace)
        spans = std::make_unique<SpanLog>();

    Json doc = Json::object();
    doc.set("workload", Json(def.name))
        .set("seed", Json(opt.seed))
        .set("build_type", Json(PERFBENCH_BUILD_TYPE));

    // 1. Correctness pass.  Every result is held until the pass ends,
    // as a timed pass holds its cells' outcomes, so the heap has grown
    // to its working size before timing starts.
    Tally tally;
    StatTotals totals;
    std::unordered_map<std::string, std::size_t> index;
    std::vector<Expected> expected;
    for (std::size_t i = 0; i < def.cells.size(); ++i)
        index[def.cells[i].id] = i;
    {
        std::vector<campaign::RunResult> results;
        for (RunRequest r : def.cells) {
            r.auditPersists = def.persistAudit;
            results.push_back(campaign::runOne(r));
        }
        for (std::size_t i = 0; i < def.cells.size(); ++i)
            expected.push_back(judge(def.cells[i], results[i],
                                     def.persistAudit, tally, &totals));
    }
    Json refs = Json::array();
    for (const RunRequest &r : def.references) {
        Json j = Json::object();
        j.set("engine", Json(r.engine))
            .set("bench", Json(r.bench))
            .set("cycles", Json(judge(r, campaign::runOne(r), false, tally,
                                      nullptr)
                                    .cycles));
        refs.push(std::move(j));
    }

    // 2. Timed passes; traced and untraced alternate under --trace.
    Json cells = Json::array();
    Json passes = Json::array();
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(opt.seconds));
    unsigned plain = 0, traced = 0;
    for (unsigned p = 0;; ++p) {
        const bool enough = plain > 0 && (!opt.trace || traced > 0);
        if (enough && Clock::now() >= deadline)
            break;
        const bool tracePass = opt.trace && p % 2 == 1;
        passes.push(timedPass(def, 1, index, expected,
                              tracePass ? spans.get() : nullptr, tally,
                              &cells));
        ++(tracePass ? traced : plain);
    }

    // 3. Layer breakdown (traced run only).
    if (opt.trace) {
        // The campaign pool, untraced so that its cells' times compare
        // with the passes' above.  Cells run concurrently here, so this
        // also checks that concurrent Systems reproduce runOne's
        // statistics.
        for (int k = 0; k < 3; ++k)
            passes.push(timedPass(def, poolJobs(), index, expected,
                                  nullptr, tally, &cells));
        runOneVariants(def, *spans, tally);
        std::vector<std::string> benches;
        std::set<std::string> seen;
        for (const RunRequest &r : def.cells)
            if (seen.insert(r.bench).second)
                benches.push_back(r.bench);
        for (const std::string &b : spread(benches, 4))
            sink += driveLayers(b, def.cells.front().scale, opt.seed, *spans);
    }

    doc.set("peak_rss_mb", Json(peakRssMiB()))
        .set("cells", std::move(cells))
        .set("references", std::move(refs))
        .set("passes", std::move(passes))
        .set("stats", totals.toJson())
        .set("attempted", Json(tally.attempted))
        .set("failed", Json(tally.failed))
        .set("failures", std::move(tally.failures))
        .set("sink", Json(sink));
    if (spans && !opt.spansPath.empty() && !spans->write(opt.spansPath)) {
        std::cerr << "perfbench: cannot write " << opt.spansPath << "\n";
        return 2;
    }
    std::cout << doc.dump() << "\n";
    return tally.failed == 0 ? 0 : 1;
}
