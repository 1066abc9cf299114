/**
 * @file
 * tsoper_campaign — parallel experiment-campaign driver.
 *
 *   tsoper_campaign --campaign=crash-matrix --jobs=8
 *   tsoper_campaign --campaign=fig11 --out=fig11.json
 *   tsoper_campaign --engines=tsoper,stw --benches=radix,dedup \
 *                   --scales=0.1 --seeds=1,2 --crash-at=0.5 --check
 *   tsoper_campaign --list-campaigns
 *   tsoper_campaign --campaign=fig12 --dry-run
 *
 * A campaign expands into the cartesian grid of run manifests, runs
 * them in-process on --jobs threads (per-cell wall-clock budget; a
 * timed-out cell is re-run up to --retries times), and writes one JSON
 * report with every cell's status and full statistics (default:
 * BENCH_campaign.json).
 *
 * Options:
 *   --campaign=<name>      built-in campaign (see --list-campaigns)
 *   --engines=a,b|all      matrix flags, used when --campaign is not
 *   --benches=a,b|all      given; defaults mirror CampaignSpec's
 *   --scales=f,...         defaults
 *   --seeds=n,...
 *   --crash-at=f,...       crash fractions in (0,1]
 *   --check                audit durable state per cell
 *   --cores=<n> --ag-max-lines=<n> --agb-slice-lines=<n>
 *   --name=<s>             campaign name in the report
 *   --jobs=<n>             job threads      (default: hardware)
 *   --timeout-ms=<n>       per-cell budget  (default: spec's, 120000;
 *                          a cell stops at its next 2M-event chunk)
 *   --retries=<n>          re-runs of a timed-out cell (default:
 *                          spec's, 1)
 *   --out=<file>           report path      (default: BENCH_campaign.json)
 *   --dry-run              print the expanded manifests and exit
 *   --quiet                suppress per-cell progress lines
 *   --list-campaigns       print built-in campaigns and exit
 *
 * Exit codes:
 *   0  every cell ok            3  unknown or invalid campaign
 *   1  some cells not ok        4  report I/O failure
 *   2  usage error
 */

#include <climits>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"
#include "workload/generators.hh"

#include "cli_numbers.hh"

using namespace tsoper;
using namespace tsoper::campaign;
using namespace tsoper::cli;

namespace
{

struct CliOptions
{
    std::string campaignName;
    std::string out = "BENCH_campaign.json";
    unsigned jobs = 0;
    long timeoutMs = -1; ///< -1 = take the spec's value.
    int retries = -1;
    bool dryRun = false;
    bool quiet = false;
    bool listCampaigns = false;
    CampaignSpec matrix; ///< From matrix flags.
    bool matrixTouched = false;
};

[[noreturn]] void
usage(int code)
{
    std::printf(
        "usage: tsoper_campaign (--campaign=NAME | matrix flags)\n"
        "                       [--jobs=N] [--timeout-ms=N] [--retries=N]\n"
        "                       [--out=FILE] [--dry-run] [--quiet]\n"
        "                       [--list-campaigns]\n"
        "matrix flags: --engines=a,b|all --benches=a,b|all --scales=f,..\n"
        "              --seeds=n,.. --crash-at=f,.. --check --cores=N\n"
        "              --ag-max-lines=N --agb-slice-lines=N --name=S\n");
    std::exit(code);
}

std::vector<std::string>
splitCsv(const std::string &s)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string item =
            s.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos);
        if (!item.empty())
            items.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return items;
}

template <typename Parse>
auto
parseListOrDie(const std::string &value, const char *what, Parse parse)
{
    std::vector<decltype(parse(std::string()))> out;
    for (const std::string &item : splitCsv(value))
        out.push_back(parse(item));
    if (out.empty()) {
        std::fprintf(stderr, "empty %s list\n", what);
        usage(2);
    }
    return out;
}

CliOptions
parseCli(int argc, char **argv)
{
    CliOptions opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto val = [&](const char *prefix) {
            return arg.substr(std::string(prefix).size());
        };
        if (arg.rfind("--campaign=", 0) == 0) {
            opt.campaignName = val("--campaign=");
        } else if (arg.rfind("--out=", 0) == 0) {
            opt.out = val("--out=");
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opt.jobs = static_cast<unsigned>(parseBoundedOrDie(
                val("--jobs="), "--jobs", 1, 1024));
        } else if (arg.rfind("--timeout-ms=", 0) == 0) {
            opt.timeoutMs = static_cast<long>(
                parseBoundedOrDie(val("--timeout-ms="),
                                  "--timeout-ms", 0, 86'400'000));
        } else if (arg.rfind("--retries=", 0) == 0) {
            opt.retries = static_cast<int>(parseBoundedOrDie(
                val("--retries="), "--retries", 0, 100));
        } else if (arg == "--dry-run") {
            opt.dryRun = true;
        } else if (arg == "--quiet") {
            opt.quiet = true;
        } else if (arg == "--list-campaigns") {
            opt.listCampaigns = true;
        } else if (arg.rfind("--engines=", 0) == 0) {
            const std::string v = val("--engines=");
            opt.matrix.engines =
                v == "all" ? engineNames() : splitCsv(v);
            opt.matrixTouched = true;
        } else if (arg.rfind("--benches=", 0) == 0) {
            const std::string v = val("--benches=");
            opt.matrix.benches =
                v == "all" ? benchmarkNames() : splitCsv(v);
            opt.matrixTouched = true;
        } else if (arg.rfind("--scales=", 0) == 0) {
            opt.matrix.scales = parseListOrDie(
                val("--scales="), "scale", [](const std::string &s) {
                    return parseFiniteOrDie(s, "--scales");
                });
            opt.matrixTouched = true;
        } else if (arg.rfind("--seeds=", 0) == 0) {
            opt.matrix.seeds = parseListOrDie(
                val("--seeds="), "seed", [](const std::string &s) {
                    return parseBoundedOrDie(s, "--seeds", 0,
                                             UINT64_MAX);
                });
            opt.matrixTouched = true;
        } else if (arg.rfind("--crash-at=", 0) == 0) {
            opt.matrix.crashFractions = parseListOrDie(
                val("--crash-at="), "crash fraction",
                [](const std::string &s) {
                    return parseFiniteOrDie(s, "--crash-at");
                });
            opt.matrixTouched = true;
        } else if (arg == "--check") {
            opt.matrix.check = true;
            opt.matrixTouched = true;
        } else if (arg.rfind("--cores=", 0) == 0) {
            opt.matrix.cores = static_cast<unsigned>(
                parseBoundedOrDie(val("--cores="), "--cores", 1, 64));
            opt.matrixTouched = true;
        } else if (arg.rfind("--ag-max-lines=", 0) == 0) {
            opt.matrix.agMaxLines = static_cast<unsigned>(
                parseBoundedOrDie(val("--ag-max-lines="),
                                  "--ag-max-lines", 0, UINT_MAX));
            opt.matrixTouched = true;
        } else if (arg.rfind("--agb-slice-lines=", 0) == 0) {
            opt.matrix.agbSliceLines = static_cast<unsigned>(
                parseBoundedOrDie(val("--agb-slice-lines="),
                                  "--agb-slice-lines", 0, UINT_MAX));
            opt.matrixTouched = true;
        } else if (arg.rfind("--name=", 0) == 0) {
            opt.matrix.name = val("--name=");
            opt.matrixTouched = true;
        } else if (arg == "--help" || arg == "-h") {
            usage(0);
        } else {
            std::fprintf(stderr, "unknown option: %s\n",
                         arg.c_str());
            usage(2);
        }
    }
    return opt;
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opt = parseCli(argc, argv);

    if (opt.listCampaigns) {
        for (const BuiltinCampaign &c : builtinCampaigns())
            std::printf("%-18s %4zu cells  %s\n", c.name.c_str(),
                        c.spec.cellCount(), c.description.c_str());
        return 0;
    }

    const bool named = !opt.campaignName.empty();
    if (named == opt.matrixTouched) {
        std::fprintf(stderr,
                     "pick exactly one of --campaign or matrix flags\n");
        usage(2);
    }

    CampaignSpec spec;
    if (!opt.campaignName.empty()) {
        const BuiltinCampaign *builtin =
            findBuiltinCampaign(opt.campaignName);
        if (!builtin) {
            std::fprintf(stderr,
                         "unknown campaign: %s (see --list-campaigns)\n",
                         opt.campaignName.c_str());
            return 3;
        }
        spec = builtin->spec;
    } else {
        spec = opt.matrix;
    }

    const std::string invalid = validateSpec(spec);
    if (!invalid.empty()) {
        std::fprintf(stderr, "invalid campaign: %s\n", invalid.c_str());
        return 3;
    }

    const std::vector<RunRequest> cells = expand(spec);
    if (opt.dryRun) {
        for (const RunRequest &r : cells)
            std::printf("%s\n", r.id.c_str());
        std::printf("%zu cells\n", cells.size());
        return 0;
    }

    RunnerOptions runner;
    runner.jobs = opt.jobs;
    runner.timeout = std::chrono::milliseconds(
        opt.timeoutMs >= 0 ? opt.timeoutMs : spec.timeoutMs);
    runner.retries = opt.retries >= 0
                         ? static_cast<unsigned>(opt.retries)
                         : spec.retries;
    if (!opt.quiet)
        runner.progress = &std::cerr;

    {
        // Fail before the campaign runs, not after, if the report
        // path is unwritable.  Append mode leaves an existing report
        // intact when a later step aborts.
        std::ofstream probe(opt.out, std::ios::app);
        if (!probe) {
            std::fprintf(stderr, "cannot open for writing: %s\n",
                         opt.out.c_str());
            return 4;
        }
    }

    std::printf("campaign %s: %zu cells on %u jobs\n", spec.name.c_str(),
                cells.size(),
                runner.jobs ? runner.jobs
                            : std::thread::hardware_concurrency());

    const CampaignReport report = runCampaign(spec.name, cells, runner);

    std::string err;
    if (!writeReportFile(report, opt.out, &err)) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 4;
    }
    std::printf("%s\nreport written to %s (%.0f ms wall)\n",
                report.summary().c_str(), opt.out.c_str(),
                report.wallMs);
    return report.allOk() ? 0 : 1;
}
