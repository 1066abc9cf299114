/**
 * @file
 * tsoper_sim — the command-line simulator driver.
 *
 * A thin wrapper over campaign::runOne(): the option struct maps 1:1
 * onto a campaign::RunRequest, so a CLI invocation and a campaign
 * cell execute identical code paths (src/campaign/run_request.cc).
 *
 *   tsoper_sim --engine=tsoper --bench=ocean_cp --scale=0.5 --stats
 *   tsoper_sim --engine=stw --bench=dedup --crash-at=0.5 --check
 *   tsoper_sim --list-benchmarks
 *
 * Options:
 *   --engine=<baseline|baseline-mesi|hwrp|bsp|bsp-slc|bsp-slc-agb|
 *             stw|tsoper>                       (default tsoper)
 *   --bench=<name>         workload profile     (default ocean_cp)
 *   --scale=<f>            workload scale, in (0, 1000] (default 1.0)
 *   --seed=<n>             workload seed        (default 1)
 *   --cores=<n>            core count           (default 8)
 *   --ag-max-lines=<n>     atomic group cap
 *   --agb-slice-lines=<n>  AGB slice capacity
 *   --crash-at=<c|f>       crash at cycle c (1<c<2^64) or fraction f of
 *                          the run (0<f<=1); implies a prior timing run
 *   --check                audit the durable state (strict TSO, or the
 *                          SFR contract for --engine=hwrp)
 *   --stats                dump all statistics
 *   --stats-out=<file>     write statistics to a file (text table)
 *   --stats-json=<file>    write statistics to a file (JSON; schema in
 *                          docs/campaigns.md)
 *   --describe             print the configuration and exit
 *   --list-benchmarks      print available profiles and exit
 *   --max-cycles=<n>       simulated-cycle budget (default 4e9)
 *   --trace-out=<file>     export the run as Chrome/Perfetto
 *                          trace_event JSON (docs/observability.md)
 *   --trace-categories=<c> structured-trace categories to record
 *                          ("ag,agb,slc" / "all"; default all with
 *                          --trace-out or --flight-recorder)
 *   --audit-persists       collect the persist stream and verify it is
 *                          a valid strict-persistency order
 *   --audit-fault=reorder  corrupt the audit log before checking, to
 *                          prove the checker rejects invalid orders
 *   --flight-recorder=<n>  keep the last n trace records for crash /
 *                          hang dumps
 *   --list-debug-flags     print the structured-trace categories,
 *                          then exit
 *
 * Exit codes (stable; scripts classify on them — keep
 * docs/campaigns.md in sync):
 *   0  success (with --check / --crash-at: the audit passed)
 *   1  consistency audit failed
 *   2  usage error (unknown option or malformed value, including a
 *      number with trailing text, beyond its field's range or not
 *      finite, e.g. --cores=8x, --cores=4294967297, --scale=inf; an
 *      unknown trace category or audit fault, a flight recorder over
 *      2^20 records, a scale outside (0, 1000] or a crash point that
 *      is neither 0, a fraction nor a cycle, e.g. --scale=1e9 or
 *      --crash-at=-0.5, and a knob out of SystemConfig's ranges, e.g.
 *      --cores=65)
 *   3  unknown --engine
 *   4  unknown --bench
 *   5  invalid workload (failed validation)
 *   6  simulation error (internal panic/fatal, e.g. deadlock)
 *   7  hung (the progress watchdog proved a livelock, or the
 *      simulated-cycle budget ran out)
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "campaign/run_request.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "sim/trace_sink.hh"
#include "workload/generators.hh"

#include "cli_numbers.hh"

using namespace tsoper;
using namespace tsoper::cli;

namespace
{

enum ExitCode
{
    ExitOk = 0,
    ExitCheckFailed = 1,
    ExitUsage = 2,
    ExitUnknownEngine = 3,
    ExitUnknownBench = 4,
    ExitInvalidWorkload = 5,
    ExitSimError = 6,
    ExitHung = 7,
};

struct CliOptions
{
    campaign::RunRequest run;
    std::string statsOut;
    std::string statsJson;
    bool stats = false;
    bool describe = false;
    bool listBenchmarks = false;
    bool listDebugFlags = false;
};

[[noreturn]] void
usage(int code)
{
    std::printf("usage: tsoper_sim [--engine=E] [--bench=B] "
                "[--scale=F] [--seed=N]\n"
                "                  [--cores=N] [--crash-at=C] "
                "[--check] [--stats] [--stats-out=F]\n"
                "                  [--stats-json=F] [--max-cycles=N]\n"
                "                  [--trace-out=F] [--trace-categories=C] "
                "[--audit-persists]\n"
                "                  [--audit-fault=reorder] "
                "[--flight-recorder=N] [--list-debug-flags]\n"
                "                  [--describe] [--list-benchmarks]\n");
    std::exit(code);
}

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto val = [&](const char *prefix) -> std::string {
            return arg.substr(std::string(prefix).size());
        };
        if (arg.rfind("--engine=", 0) == 0)
            opt.run.engine = val("--engine=");
        else if (arg.rfind("--bench=", 0) == 0)
            opt.run.bench = val("--bench=");
        else if (arg.rfind("--trace-categories=", 0) == 0)
            opt.run.traceCategories = val("--trace-categories=");
        else if (arg.rfind("--trace-out=", 0) == 0)
            opt.run.traceOut = val("--trace-out=");
        else if (arg == "--audit-persists")
            opt.run.auditPersists = true;
        else if (arg.rfind("--audit-fault=", 0) == 0)
            opt.run.auditFault = val("--audit-fault=");
        else if (arg.rfind("--flight-recorder=", 0) == 0)
            opt.run.flightRecorder = static_cast<unsigned>(
                parseBoundedOrDie(val("--flight-recorder="),
                                  "--flight-recorder", 0, UINT_MAX));
        else if (arg == "--list-debug-flags")
            opt.listDebugFlags = true;
        else if (arg.rfind("--stats-out=", 0) == 0)
            opt.statsOut = val("--stats-out=");
        else if (arg.rfind("--stats-json=", 0) == 0)
            opt.statsJson = val("--stats-json=");
        else if (arg.rfind("--max-cycles=", 0) == 0)
            opt.run.maxCycles = parseBoundedOrDie(
                val("--max-cycles="), "--max-cycles", 0, UINT64_MAX);
        else if (arg.rfind("--scale=", 0) == 0)
            opt.run.scale = parseFiniteOrDie(val("--scale="), "--scale");
        else if (arg.rfind("--seed=", 0) == 0)
            opt.run.seed =
                parseBoundedOrDie(val("--seed="), "--seed", 0, UINT64_MAX);
        else if (arg.rfind("--cores=", 0) == 0)
            opt.run.cores = static_cast<unsigned>(parseBoundedOrDie(
                val("--cores="), "--cores", 0, UINT_MAX));
        else if (arg.rfind("--ag-max-lines=", 0) == 0)
            opt.run.agMaxLines = static_cast<unsigned>(
                parseBoundedOrDie(val("--ag-max-lines="),
                                  "--ag-max-lines", 0, UINT_MAX));
        else if (arg.rfind("--agb-slice-lines=", 0) == 0)
            opt.run.agbSliceLines = static_cast<unsigned>(
                parseBoundedOrDie(val("--agb-slice-lines="),
                                  "--agb-slice-lines", 0, UINT_MAX));
        else if (arg.rfind("--crash-at=", 0) == 0)
            opt.run.crashAt =
                parseFiniteOrDie(val("--crash-at="), "--crash-at");
        else if (arg == "--check")
            opt.run.check = true;
        else if (arg == "--stats")
            opt.stats = true;
        else if (arg == "--describe")
            opt.describe = true;
        else if (arg == "--list-benchmarks")
            opt.listBenchmarks = true;
        else if (arg == "--help" || arg == "-h")
            usage(0);
        else {
            std::fprintf(stderr, "unknown option: %s\n",
                         arg.c_str());
            usage(ExitUsage);
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opt = parseCli(argc, argv);

    if (opt.listBenchmarks) {
        for (const Profile &p : allProfiles())
            std::printf("%-14s ops/core=%-6u write=%.2f shared=%.2f "
                        "locks=%u\n",
                        p.name.c_str(), p.opsPerCore, p.writeFrac,
                        p.sharedFrac, p.numLocks);
        return ExitOk;
    }

    if (opt.listDebugFlags) {
        std::printf("trace categories (--trace-categories=, "
                    "comma-separated; 'all' for every one):\n");
        for (unsigned c = 0; c < trace::numCategories; ++c)
            std::printf("  %s\n", trace::categoryName(
                                       static_cast<trace::Category>(c)));
        return ExitOk;
    }

    // A bad trace value is a usage error, caught before anything is
    // built.
    std::string err;
    trace::TraceOptions traceValues;
    traceValues.categories = opt.run.traceCategories;
    traceValues.auditFault = opt.run.auditFault;
    traceValues.flightRecorderDepth = opt.run.flightRecorder;
    if (!traceValues.check(&err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return ExitUsage;
    }

    // Resolve the config up front: --describe needs it before any run.
    // An unknown engine exits 3, a knob out of range is a usage error.
    SystemConfig cfg;
    if (!campaign::resolveConfig(opt.run, &cfg, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        EngineKind engine{};
        ProtocolKind protocol{};
        return engineFromName(opt.run.engine, &engine, &protocol)
                   ? ExitUsage
                   : ExitUnknownEngine;
    }
    if (!findProfile(opt.run.bench)) {
        std::fprintf(stderr, "unknown benchmark: %s\n",
                     opt.run.bench.c_str());
        return ExitUnknownBench;
    }

    if (opt.describe) {
        cfg.describe(std::cout);
        return ExitOk;
    }

    // Capture the stats dumps inside the hook (the System is only
    // alive there) but print them after the banner/result lines, in
    // the seed CLI's output order.
    std::string statsText;
    campaign::RunHooks hooks;
    hooks.onFinished = [&](System &sys) {
        if (opt.stats) {
            std::ostringstream os;
            sys.stats().dump(os);
            statsText = os.str();
        }
        if (!opt.statsOut.empty()) {
            std::ofstream os(opt.statsOut);
            sys.stats().dump(os);
        }
        if (!opt.statsJson.empty()) {
            std::ofstream os(opt.statsJson);
            os << statsJsonText(sys.stats()) << "\n";
        }
    };

    const campaign::RunResult res = campaign::runOne(opt.run, hooks);

    switch (res.status) {
      case campaign::RunStatus::BadRequest:
        std::fprintf(stderr, "%s\n", res.detail.c_str());
        return ExitInvalidWorkload;
      case campaign::RunStatus::Crashed:
        std::fprintf(stderr, "%s\n", res.detail.c_str());
        return ExitSimError;
      case campaign::RunStatus::Hung:
        std::fprintf(stderr, "%s\n", res.detail.c_str());
        return ExitHung;
      default:
        break;
    }

    std::printf("engine=%s workload=%s ops=%llu stores=%llu cores=%u\n",
                toString(cfg.engine), opt.run.bench.c_str(),
                static_cast<unsigned long long>(res.ops),
                static_cast<unsigned long long>(res.stores),
                cfg.numCores);
    if (opt.run.crashAt > 0.0)
        std::printf("crashed at cycle %llu\n",
                    static_cast<unsigned long long>(res.crashCycle));
    else
        std::printf("finished in %llu cycles (+%llu drain)\n",
                    static_cast<unsigned long long>(res.cycles),
                    static_cast<unsigned long long>(res.drainCycles));
    if (!res.recoverySummary.empty())
        std::printf("%s\n", res.recoverySummary.c_str());
    if (res.persistAudited) {
        std::printf("persist audit: %s (%llu commits, %llu groups, "
                    "%llu pb-edges)\n",
                    res.persistAuditOk ? "ok" : "FAILED",
                    static_cast<unsigned long long>(res.persistCommits),
                    static_cast<unsigned long long>(res.persistGroups),
                    static_cast<unsigned long long>(res.persistEdges));
        if (!res.persistAuditOk)
            std::printf("  %s\n", res.persistAuditDetail.c_str());
    }
    if (!opt.run.traceOut.empty())
        std::printf("trace written to %s\n", opt.run.traceOut.c_str());
    if (opt.stats)
        std::fputs(statsText.c_str(), stdout);
    if (!opt.statsOut.empty())
        std::printf("stats written to %s\n", opt.statsOut.c_str());
    if (!opt.statsJson.empty())
        std::printf("stats written to %s\n", opt.statsJson.c_str());

    return res.status == campaign::RunStatus::CheckFailed
               ? ExitCheckFailed
               : ExitOk;
}
