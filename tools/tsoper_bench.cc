/**
 * @file
 * tsoper_bench — wall-clock benchmark driver for the simulation
 * kernel.  Runs the three micro patterns from bench/kernel_patterns.hh
 * plus one fixed-seed fig11 cell (tsoper engine on ocean_cp) and
 * writes BENCH_kernel.json: the perf trajectory's datapoints.
 *
 *   tsoper_bench                      # full run, BENCH_kernel.json
 *   tsoper_bench --quick --verify-out # CI smoke (bench_smoke ctest)
 *
 * Options:
 *   --out=<file>     output path            (default BENCH_kernel.json)
 *   --quick          ~20x fewer events; for CI smoke, not for numbers
 *   --repeat=<n>     repetitions per pattern (default 3)
 *   --median         keep the median-wall-clock repetition instead of
 *                    the fastest (steadier on noisy/shared hosts)
 *   --verify-out     re-read the emitted JSON and validate the schema
 *
 * Schema ("schema": "tsoper.bench.kernel/v4"):
 *   {
 *     "schema": "...", "quick": bool,
 *     "provenance": {"git_sha": s, "hostname": s, "cpu_model": s,
 *                    "host_cpus": u, "cmake_preset": s,
 *                    "build_type": s},
 *     "micro": {"<pattern>": {"events": u, "wall_seconds": f,
 *                             "events_per_sec": f}, ...},
 *     "fig11": {"engine": "tsoper", "bench": "ocean_cp", "seed": u,
 *               "scale": f, "cycles": u, "events": u,
 *               "wall_seconds": f, "events_per_sec": f}
 *   }
 * provenance records where the numbers came from (dirty trees get a
 * "-dirty" sha suffix, host_cpus is the measuring host's CPU count) so
 * a committed BENCH_kernel.json is never mystery data; preset/build
 * type are baked in at compile time, the rest is read at run time,
 * best effort — fields degrade to "unknown", never fail the run.
 * docs/perf.md documents how to read and track these numbers.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "core/system.hh"
#include "kernel_patterns.hh"
#include "sim/json.hh"
#include "workload/generators.hh"

#ifndef TSOPER_BENCH_PRESET
#define TSOPER_BENCH_PRESET "unknown"
#endif
#ifndef TSOPER_BENCH_BUILD_TYPE
#define TSOPER_BENCH_BUILD_TYPE "unknown"
#endif

using namespace tsoper;

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Pick the reported wall-clock from @p samples: the fastest, or with
 *  @p median the median (lower middle for even counts — an actual
 *  measured run, not an average of two). */
double
keptSeconds(std::vector<double> samples, bool median)
{
    std::sort(samples.begin(), samples.end());
    return median ? samples[(samples.size() - 1) / 2] : samples.front();
}

/** Run @p body @p repeat times; report one (events, seconds) sample
 *  selected per @p median.  The event count is a pure function of the
 *  pattern, so any run's count serves. */
Json
timeRuns(unsigned repeat, bool median,
         const std::function<std::uint64_t()> &body)
{
    std::uint64_t events = 0;
    std::vector<double> secs;
    secs.reserve(repeat);
    for (unsigned r = 0; r < repeat; ++r) {
        const auto start = std::chrono::steady_clock::now();
        events = body();
        secs.push_back(secondsSince(start));
    }
    const double kept = keptSeconds(std::move(secs), median);
    Json entry = Json::object();
    entry.set("events", events);
    entry.set("wall_seconds", kept);
    entry.set("events_per_sec",
              kept > 0.0 ? static_cast<double>(events) / kept : 0.0);
    return entry;
}

/** First output line of @p cmd, or "" if it fails to run. */
std::string
firstLineOf(const char *cmd)
{
    FILE *pipe = popen(cmd, "r");
    if (!pipe)
        return "";
    char buf[256] = {};
    const bool got = std::fgets(buf, sizeof(buf), pipe) != nullptr;
    const int status = pclose(pipe);
    if (!got || status != 0)
        return "";
    std::string line(buf);
    while (!line.empty() && (line.back() == '\n' || line.back() == '\r'))
        line.pop_back();
    return line;
}

Json
buildProvenance()
{
    Json p = Json::object();
    std::string sha =
        firstLineOf("git rev-parse --short=12 HEAD 2>/dev/null");
    if (!sha.empty() &&
        !firstLineOf("git status --porcelain 2>/dev/null").empty())
        sha += "-dirty";
    p.set("git_sha", sha.empty() ? "unknown" : sha);

    char host[256] = {};
    p.set("hostname",
          gethostname(host, sizeof(host) - 1) == 0 && host[0] != '\0'
              ? host
              : "unknown");

    std::string cpu = "unknown";
    std::ifstream cpuinfo("/proc/cpuinfo");
    for (std::string line; std::getline(cpuinfo, line);) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos) {
                std::size_t begin = colon + 1;
                while (begin < line.size() && line[begin] == ' ')
                    ++begin;
                cpu = line.substr(begin);
            }
            break;
        }
    }
    p.set("cpu_model", cpu);
    p.set("host_cpus", static_cast<std::uint64_t>(
                           std::thread::hardware_concurrency()));

    p.set("cmake_preset", TSOPER_BENCH_PRESET);
    p.set("build_type", TSOPER_BENCH_BUILD_TYPE);
    return p;
}

bool
verifyDocument(const Json &doc, std::string *err)
{
    const Json *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != "tsoper.bench.kernel/v4") {
        *err = "missing or wrong schema tag";
        return false;
    }
    const Json *prov = doc.find("provenance");
    if (!prov || !prov->isObject()) {
        *err = "missing provenance block";
        return false;
    }
    for (const char *field : {"git_sha", "hostname", "cpu_model",
                              "cmake_preset", "build_type"}) {
        const Json *v = prov->find(field);
        if (!v || !v->isString() || v->asString().empty()) {
            *err = std::string("provenance.") + field +
                   " missing or empty";
            return false;
        }
    }
    const Json *cpus = prov->find("host_cpus");
    if (!cpus || !cpus->isNumber()) {
        *err = "provenance.host_cpus missing";
        return false;
    }
    const Json *micro = doc.find("micro");
    if (!micro || !micro->isObject() || micro->size() < 3) {
        *err = "micro must be an object with >= 3 patterns";
        return false;
    }
    for (const auto &[name, entry] : micro->members()) {
        for (const char *field :
             {"events", "wall_seconds", "events_per_sec"}) {
            const Json *v = entry.find(field);
            if (!v || !v->isNumber() || v->asDouble() <= 0.0) {
                *err = "micro." + name + "." + field +
                       " missing or non-positive";
                return false;
            }
        }
    }
    const Json *fig11 = doc.find("fig11");
    if (!fig11 || !fig11->isObject()) {
        *err = "missing fig11 cell";
        return false;
    }
    for (const char *field : {"engine", "bench", "seed", "scale",
                              "cycles", "events", "wall_seconds",
                              "events_per_sec"}) {
        if (!fig11->find(field)) {
            *err = std::string("fig11.") + field + " missing";
            return false;
        }
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string out = "BENCH_kernel.json";
    bool quick = false;
    bool verifyOut = false;
    bool median = false;
    unsigned repeat = 3;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--out=", 0) == 0) {
            out = arg.substr(6);
        } else if (arg == "--quick") {
            quick = true;
        } else if (arg == "--verify-out") {
            verifyOut = true;
        } else if (arg.rfind("--repeat=", 0) == 0) {
            repeat = static_cast<unsigned>(std::stoul(arg.substr(9)));
        } else if (arg == "--median") {
            median = true;
        } else if (arg == "--help" || arg == "-h") {
            std::printf("usage: tsoper_bench [--out=F] [--quick] "
                        "[--repeat=N] [--median] [--verify-out]\n");
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            return 2;
        }
    }

    const std::uint64_t microEvents = quick ? 100'000 : 2'000'000;
    const double fig11Scale = quick ? 0.05 : 0.3;
    if (quick)
        repeat = 1;

    Json doc = Json::object();
    doc.set("schema", "tsoper.bench.kernel/v4");
    doc.set("quick", quick);
    doc.set("provenance", buildProvenance());

    Json micro = Json::object();
    struct Pattern
    {
        const char *name;
        std::uint64_t (*fn)(std::uint64_t);
    };
    const Pattern patterns[] = {
        {"schedule_heavy",
         [](std::uint64_t n) { return bench::patternScheduleHeavy(n); }},
        {"zero_delay_heavy",
         [](std::uint64_t n) { return bench::patternZeroDelayHeavy(n); }},
        {"mixed_latency",
         [](std::uint64_t n) { return bench::patternMixedLatency(n); }},
    };
    for (const Pattern &p : patterns) {
        Json entry =
            timeRuns(repeat, median, [&] { return p.fn(microEvents); });
        std::printf("%-18s %12.0f events/s (%.3fs, %llu events)\n",
                    p.name, entry["events_per_sec"].asDouble(),
                    entry["wall_seconds"].asDouble(),
                    static_cast<unsigned long long>(
                        entry["events"].asUint()));
        micro.set(p.name, std::move(entry));
    }
    doc.set("micro", std::move(micro));

    // One fixed-seed fig11 cell: the tsoper engine on ocean_cp.  The
    // workload is generated outside the timed region; the timer covers
    // System construction + run, the unit a campaign cell pays.
    {
        const std::uint64_t seed = 1;
        SystemConfig cfg = makeConfig(EngineKind::Tsoper);
        const Workload w =
            generateByName("ocean_cp", cfg.numCores, seed, fig11Scale);
        Json cell = Json::object();
        std::uint64_t events = 0;
        Cycle cycles = 0;
        std::vector<double> secs;
        secs.reserve(repeat);
        for (unsigned r = 0; r < repeat; ++r) {
            const auto start = std::chrono::steady_clock::now();
            System sys(cfg, w);
            cycles = sys.run();
            secs.push_back(secondsSince(start));
            events = sys.eventQueue().executed();
        }
        const double kept = keptSeconds(std::move(secs), median);
        cell.set("engine", "tsoper");
        cell.set("bench", "ocean_cp");
        cell.set("seed", seed);
        cell.set("scale", fig11Scale);
        cell.set("cycles", static_cast<std::uint64_t>(cycles));
        cell.set("events", events);
        cell.set("wall_seconds", kept);
        cell.set("events_per_sec",
                 kept > 0.0 ? static_cast<double>(events) / kept : 0.0);
        std::printf("%-18s %12.0f events/s (%.3fs, %llu events, "
                    "%llu cycles)\n",
                    "fig11_cell", cell["events_per_sec"].asDouble(),
                    kept, static_cast<unsigned long long>(events),
                    static_cast<unsigned long long>(cycles));
        doc.set("fig11", std::move(cell));
    }

    {
        std::ofstream os(out);
        if (!os) {
            std::fprintf(stderr, "cannot write %s\n", out.c_str());
            return 1;
        }
        os << doc.dump(2) << "\n";
    }
    std::printf("wrote %s\n", out.c_str());

    if (verifyOut) {
        std::ifstream is(out);
        std::stringstream ss;
        ss << is.rdbuf();
        Json parsed;
        std::string err;
        if (!Json::parse(ss.str(), &parsed, &err)) {
            std::fprintf(stderr, "verify-out: %s does not parse: %s\n",
                         out.c_str(), err.c_str());
            return 1;
        }
        if (!verifyDocument(parsed, &err)) {
            std::fprintf(stderr, "verify-out: %s\n", err.c_str());
            return 1;
        }
        std::printf("verify-out: schema ok\n");
    }
    return 0;
}
