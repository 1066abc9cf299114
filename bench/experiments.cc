/**
 * @file
 * Writes and checks every measured number in the docs:
 * `experiments [--check] DOC...`.
 *
 * A measured region of a doc sits between the lines
 * "<!-- generated: NAME -->" and "<!-- /generated -->", NAME being one
 * of kBlocks.  A first pass renders the blocks against empty runs to
 * collect the cells they ask for; the campaign runner simulates each
 * distinct (request, variant) once on its job threads; a second pass
 * renders the blocks from those runs and rewrites the docs, or with
 * --check names each block that differs.  Exit codes: 0 done, 1 a
 * block differs or a cell is not ok (nothing is written), 2 usage
 * error, unreadable doc, or an unknown or unclosed block.
 *
 * The Fig. 11/12/13 cells are the fig11/fig12/fig13 built-in
 * campaigns; every other sweep copies fig11's spec and sets only what
 * a RunRequest carries.  A knob no RunRequest field carries is a named
 * Variant applied to the SystemConfig; its name ends the cell id.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "campaign/builtin.hh"
#include "campaign/runner.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

using namespace tsoper;
using namespace tsoper::campaign;

namespace
{

/** A SystemConfig change that no RunRequest field carries. */
struct Variant
{
    std::string name;
    void (*apply)(SystemConfig &);

    /** The default config with this variant applied. */
    SystemConfig
    config() const
    {
        SystemConfig cfg;
        apply(cfg);
        return cfg;
    }
};

const Variant kSmallCache{"priv16", [](SystemConfig &c) { c.privSets = 16; }};
const Variant kSmallCacheDir{"priv16-dir512", [](SystemConfig &c) {
                                 kSmallCache.apply(c);
                                 c.dirEntriesPerBank = 512;
                             }};
const Variant kShortEpoch{"epoch640",
                          [](SystemConfig &c) { c.bspEpochStores = 640; }};
const Variant kCentralAgb{"central-agb",
                          [](SystemConfig &c) { c.agbDistributed = false; }};

/** Fig. 15's benchmark: the only cells whose time series are kept. */
const std::string kTimelineBench = "ocean_cp";

RunResult
simulate(const RunRequest &r)
{
    RunResult res;
    SystemConfig cfg;
    if (!resolveConfig(r, &cfg, &res.detail))
        return res;
    for (const Variant *v :
         {&kSmallCache, &kSmallCacheDir, &kShortEpoch, &kCentralAgb})
        if (r.id.ends_with("/" + v->name))
            v->apply(cfg);
    const Workload w = generateByName(r.bench, cfg.numCores, r.seed, r.scale);
    System sys(cfg, w);
    res.cycles = sys.run(r.maxCycles);
    res.status = RunStatus::Ok;
    res.stats = statsToJson(sys.stats());
    // A TSOPER cell's AG series holds a point per AG (9,615 on lu_ncb)
    // and only Fig. 15 reads one, so the rest are dropped.
    if (r.bench != kTimelineBench)
        res.stats.set("series", Json::object());
    return res;
}

/** One finished cell. */
struct Run
{
    Cycle cycles = 1; ///< Not 0: blocks divide by an empty stand-in's.
    StatsRegistry stats;
};

/** A column's runs, one per benchmark in fig11's order. */
using Col = std::vector<Run *>;
using Table = std::vector<std::vector<double>>; ///< [column][benchmark]

/** The cells the blocks ask for, and after run() their runs. */
class Cells
{
  public:
    /** @p column's runs; before run(), an empty stand-in each. */
    Col
    get(const std::vector<RunRequest> &column)
    {
        Col col;
        for (const RunRequest &r : column) {
            auto it = std::find(requests_.begin(), requests_.end(), r);
            if (it == requests_.end())
                it = requests_.insert(it, r);
            col.push_back(runs_.empty() ? &empty_
                                        : &runs_[it - requests_.begin()]);
        }
        return col;
    }

    /** Simulate every cell; false, naming each, if one is not ok. */
    bool
    run()
    {
        RunnerOptions opt;
        opt.retries = 0;
        opt.cellFn = simulate;
        const CampaignReport report =
            runCampaign("experiments", requests_, opt);
        std::printf("experiments: %zu cells in %.1f s\n", requests_.size(),
                    report.wallMs / 1000.0);
        runs_.resize(requests_.size());
        bool ok = true;
        for (std::size_t i = 0; i < runs_.size(); ++i) {
            const RunResult &res = report.cells[i].result;
            std::string err = res.detail;
            runs_[i].cycles = res.cycles;
            if (res.status != RunStatus::Ok ||
                !statsFromJson(res.stats, &runs_[i].stats, &err)) {
                std::cerr << "cell " << requests_[i].id << ": "
                          << toString(res.status) << " " << err << "\n";
                ok = false;
            }
        }
        return ok;
    }

  private:
    std::vector<RunRequest> requests_;
    std::vector<Run> runs_;
    Run empty_;
};

const CampaignSpec &
spec(const char *builtin)
{
    return findBuiltinCampaign(builtin)->spec;
}

const std::vector<std::string> &
benches()
{
    return spec("fig11").benches;
}

/** @p s's cells with @p v applied, one column per engine. */
std::vector<Col>
columns(Cells &cells, const CampaignSpec &s, const Variant *v = nullptr)
{
    std::vector<RunRequest> all = expand(s);
    std::vector<Col> cols;
    for (auto it = all.begin(); it != all.end(); it += benches().size()) {
        for (auto r = it; v && r != it + benches().size(); ++r)
            r->id += "/" + v->name;
        cols.push_back(cells.get({it, it + benches().size()}));
    }
    return cols;
}

/** @p engine over fig11's benchmarks, scale and seed.  A size equal
 *  to the default stays 0, so that cell is fig11's own. */
Col
sweep(Cells &cells, const std::string &engine, const Variant *v = nullptr,
      unsigned agMaxLines = 0, unsigned agbSliceLines = 0)
{
    const SystemConfig def;
    CampaignSpec s = spec("fig11");
    s.engines = {engine};
    s.agMaxLines = agMaxLines == def.agMaxLines ? 0 : agMaxLines;
    s.agbSliceLines = agbSliceLines == def.agbSliceLines ? 0 : agbSliceLines;
    return columns(cells, s, v)[0];
}

/** @p args streamed into one string. */
template <typename... Args>
std::string
str(const Args &...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

std::string
fmt(const char *format, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, format, v);
    return buf;
}

double
gmean(const std::vector<double> &v)
{
    double logSum = 0.0;
    for (double x : v)
        logSum += std::log(x);
    return std::exp(logSum / static_cast<double>(v.size()));
}

/** "- @p what: k of n benchmarks.", k counting less[b] < more[b]. */
std::string
claim(const std::string &what, const std::vector<double> &less,
      const std::vector<double> &more)
{
    std::size_t k = 0;
    for (std::size_t b = 0; b < less.size(); ++b)
        k += less[b] < more[b];
    return str("- ", what, ": ", k, " of ", less.size(), " benchmarks.\n");
}

/** Markdown table: a row per benchmark of @p t, then a gmean row. */
std::string
benchTable(const std::vector<std::string> &head, const Table &t,
           bool gmeanRow = true, const char *format = "%.3f")
{
    std::string out = "| benchmark |", rule = "\n|---|";
    for (const std::string &h : head) {
        out += " " + h + " |";
        rule += "---:|";
    }
    out += rule + "\n";
    const auto row = [&](const std::string &label, auto value) {
        out += "| " + label + " |";
        for (const std::vector<double> &col : t)
            out += " " + fmt(format, value(col)) + " |";
        out += "\n";
    };
    for (std::size_t b = 0; b < benches().size(); ++b)
        row(benches()[b], [&](const std::vector<double> &c) { return c[b]; });
    if (gmeanRow)
        row("**gmean**", gmean);
    return out + "\n";
}

/**
 * The normalized-cycles table of Figs. 11/12, SLC/MESI and the
 * ablations: each column's cycles over column @p base's, benchmark by
 * benchmark, then for each (a, b) in @p faster the count of benchmarks
 * where column a is faster than column b.
 */
std::string
ratios(const std::vector<std::pair<std::string, Col>> &cols,
       std::size_t base, const std::vector<std::pair<int, int>> &faster)
{
    std::vector<std::string> head;
    Table t;
    for (const auto &[name, col] : cols) {
        head.push_back(name);
        t.emplace_back();
        for (std::size_t b = 0; b < col.size(); ++b)
            t.back().push_back(double(col[b]->cycles) /
                               double(cols[base].second[b]->cycles));
    }
    std::string out = benchTable(head, t);
    for (const auto &[a, b] : faster)
        out += claim(head[a] + " faster than " + head[b], t[a], t[b]);
    return out;
}

std::string
privateCaches(const SystemConfig &c)
{
    return str(c.privSets * c.privWays * lineBytes / 1024.0,
               " KiB private caches (", c.privSets, " sets x ", c.privWays,
               " ways)");
}

// --- Blocks -------------------------------------------------------------

std::string
table1(Cells &)
{
    const auto describe = [](EngineKind e) {
        std::ostringstream os;
        makeConfig(e).describe(os);
        return os.str();
    };
    const std::string tsoper = describe(EngineKind::Tsoper);
    std::string out = "```\n" + tsoper;
    for (EngineKind e : {EngineKind::None, EngineKind::HwRp, EngineKind::Bsp,
                         EngineKind::BspSlc, EngineKind::BspSlcAgb,
                         EngineKind::Stw}) {
        out += str("  -- ", toString(e), " differs in:\n");
        std::istringstream lines(describe(e));
        for (std::string line; std::getline(lines, line);)
            if (tsoper.find(line + "\n") == std::string::npos)
                out += line + "\n";
    }
    return out + str("```\n\nEvery measured block runs the ",
                     benches().size(), " benchmark profiles at scale x",
                     spec("fig11").scales[0], ", seed ",
                     spec("fig11").seeds[0], ".\n");
}

std::string
fig11(Cells &c)
{
    const std::vector<Col> col = columns(c, spec("fig11"));
    return ratios({{"baseline", col[0]}, {"HW-RP", col[1]}, {"BSP", col[2]},
                   {"STW", col[3]}, {"TSOPER", col[4]}},
                  0, {{1, 3}, {2, 3}, {4, 3}, {4, 2}, {4, 1}});
}

std::string
fig12(Cells &c)
{
    const std::vector<Col> col = columns(c, spec("fig12"));
    return ratios({{"BSP", col[0]}, {"BSP+SLC", col[1]},
                   {"BSP+SLC+AGB", col[2]}, {"TSOPER", col[3]}},
                  3, {{1, 0}, {2, 1}, {2, 3}});
}

std::string
fig13(Cells &c)
{
    Histogram all;
    const Col col = columns(c, spec("fig13"))[0];
    for (Run *r : col)
        for (const auto &[v, n] : r->stats.histogram("ag.size").buckets())
            all.add(v, n);
    const unsigned cap = SystemConfig().agMaxLines;
    std::string out = str("TSOPER with the AG cap raised to ",
                          spec("fig13").agMaxLines, " lines, so the tail "
                          "past the ", cap, "-line cap shows.\n\n"
                          "| AG size (lines) | cumulative |\n|---|---:|\n");
    for (std::uint64_t s : {1, 2, 3, 5, 8, 10, 16, 24, 32, 48, 64, 80, 128})
        out += str("| ", s, " | ", fmt("%.1f%%", 100 * all.cumulativeAt(s)),
                   " |\n");
    return out + str("\n- ", fmt("%.1f%%", 100 * all.cumulativeAt(10)),
                     " of ", all.samples(), " AGs are at most 10 lines; ",
                     fmt("%.2f%%", 100 * (1 - all.cumulativeAt(cap - 1))),
                     " are at least ", cap, " lines.\n");
}

std::string
fig14(Cells &c)
{
    const Col base = sweep(c, "baseline", &kSmallCache);
    Table t;
    for (const char *engine : {"hwrp", "bsp", "stw", "tsoper"}) {
        const Col col = sweep(c, engine, &kSmallCache);
        for (const char *stat :
             {"traffic.coherence_wb", "traffic.persist_wb"}) {
            t.emplace_back();
            for (std::size_t b = 0; b < col.size(); ++b)
                t.back().push_back(
                    double(col[b]->stats.get(stat)) /
                    std::max(1.0, double(base[b]->stats.get(
                                      "traffic.coherence_wb"))));
        }
    }
    return str("All systems with ", privateCaches(kSmallCache.config()),
               "; each cell is write traffic over the baseline's "
               "coherence writebacks.\n\n") +
           benchTable({"HW-RP coh", "HW-RP per", "BSP coh", "BSP per",
                       "STW coh", "STW per", "TSOPER coh", "TSOPER per"},
                      t) +
           claim("TSOPER persists more than its coherence traffic", t[6],
                 t[7]) +
           claim("TSOPER persists less than its coherence traffic", t[7],
                 t[6]) +
           claim("BSP persists more than its coherence traffic", t[2],
                 t[3]) +
           claim("HW-RP persists more than TSOPER", t[7], t[1]);
}

std::string
fig15(Cells &c)
{
    const std::vector<Col> fig11 = columns(c, spec("fig11"));
    const std::size_t at =
        std::find(benches().begin(), benches().end(), kTimelineBench) -
        benches().begin();
    std::string out = "Region sizes in stores on " + kTimelineBench +
                      ": the mean per 1/24 of the run, then the share of "
                      "regions of at most N stores.\n\n```\n";
    for (const auto &[run, name, stat] :
         {std::tuple{fig11[1][at], "HW-RP SFR", "hwrp.sfr_stores"},
          std::tuple{fig11[4][at], "TSOPER AG", "ag.stores"}}) {
        constexpr unsigned buckets = 24;
        std::vector<double> sum(buckets), n(buckets);
        for (const auto &[when, v] :
             run->stats.timeSeries(str(stat, "_t")).points()) {
            const auto b = std::min<Cycle>(
                buckets - 1, when * buckets / (run->cycles + 1));
            sum[b] += v;
            n[b] += 1;
        }
        out += str(name, " timeline ");
        for (unsigned b = 0; b < buckets; ++b)
            out += fmt("%6.1f", n[b] ? sum[b] / n[b] : 0.0);
        const Histogram &h = run->stats.histogram(stat);
        out += str("\n", name, ": ", h.samples(), " regions, mean ",
                   fmt("%.1f", h.mean()), " stores;");
        for (std::uint64_t s : {0, 1, 2, 4, 8, 16, 64, 256, 1024, 2560})
            out += str(" ", s, ": ", fmt("%.1f%%", 100 * h.cumulativeAt(s)));
        out += str("\n", name, ": ", run->stats.get("traffic.persist_wb"),
                   " lines persisted to NVM\n");
    }
    return out + "```\n";
}

std::string
slcMesi(Cells &c)
{
    return ratios({{"MESI", sweep(c, "baseline-mesi")},
                   {"SLC", sweep(c, "baseline")}},
                  0, {{1, 0}});
}

std::string
listLengths(Cells &c)
{
    Table t(4); // persist, coherence; over all samples, then 2+ nodes
    for (Run *r : sweep(c, "tsoper")) {
        for (std::size_t i = 0; i < t.size(); ++i) {
            const std::uint64_t from = i < 2 ? 0 : 2;
            std::uint64_t n = 0, sum = 0;
            for (const auto &[v, k] :
                 r->stats.histogram(i % 2 ? "slc.coherence_list_len"
                                          : "slc.persist_list_len")
                     .buckets()) {
                n += v >= from ? k : 0;
                sum += v >= from ? v * k : 0;
            }
            t[i].push_back(n ? double(sum) / double(n) : 0.0);
        }
    }
    const std::string longer =
        "Coherence lists longer than persist lists over ";
    return benchTable({"persist", "coherence", "persist, 2+ nodes",
                       "coherence, 2+ nodes"},
                      t) +
           claim(longer + "all samples", t[0], t[1]) +
           claim(longer + "samples with 2+ nodes", t[2], t[3]);
}

std::string
a1(Cells &c)
{
    const SystemConfig def;
    std::vector<std::pair<std::string, Col>> cols;
    for (unsigned lines : {2 * def.agbSliceLines, def.agbSliceLines,
                           def.agbSliceLines / 2, def.agbSliceLines / 4,
                           def.agbSliceLines / 8})
        cols.push_back({str(lines * lineBytes / 1024.0, " KiB slice"),
                        sweep(c, "tsoper", nullptr,
                              std::min(def.agMaxLines, lines), lines)});
    return "TSOPER by AGB slice size per channel; the AG cap shrinks with "
           "a slice below it.\n\n" +
           ratios(cols, 1, {{4, 1}, {1, 4}});
}

std::string
a2a(Cells &c)
{
    const SystemConfig def;
    std::vector<std::pair<std::string, Col>> cols;
    for (unsigned cap : {8u, 20u, 40u, def.agMaxLines, 2 * def.agMaxLines})
        cols.push_back({str(cap, "-line cap"),
                        sweep(c, "tsoper", nullptr, cap,
                              std::max(def.agbSliceLines, 2 * cap))});
    return "TSOPER by AG cap.\n\n" + ratios(cols, 3, {{0, 3}, {3, 0}});
}

std::string
a2b(Cells &c)
{
    const auto epoch = [](const SystemConfig &cfg) {
        return str(cfg.bspEpochStores, "-store epochs");
    };
    return "BSP+SLC+AGB by epoch length, over TSOPER.\n\n" +
           ratios({{"TSOPER", sweep(c, "tsoper")},
                   {epoch(SystemConfig()), sweep(c, "bsp-slc-agb")},
                   {epoch(kShortEpoch.config()),
                    sweep(c, "bsp-slc-agb", &kShortEpoch)}},
                  0, {{2, 1}, {1, 2}, {2, 0}});
}

std::string
a3(Cells &c)
{
    const SystemConfig cfg = kSmallCacheDir.config();
    Table t(3);
    for (Run *r : sweep(c, "tsoper", &kSmallCacheDir)) {
        const Histogram &evb =
            r->stats.histogram("slc.evict_buffer_occupancy");
        t[0].push_back(double(evb.max()));
        t[1].push_back(evb.mean());
        t[2].push_back(
            double(r->stats.histogram("dir.evict_buffer_occupancy").max()));
    }
    return str("TSOPER with ", privateCaches(cfg), " and ",
               cfg.dirEntriesPerBank, " directory entries per bank; the "
               "buffers hold ", cfg.evictBufferEntries, " (per core) and ",
               cfg.dirEvictBufferEntries, " (directory) entries.\n\n") +
           benchTable({"evict buffer max", "evict buffer mean",
                       "dir evict buffer max"},
                      t, false, "%.2f");
}

std::string
a4(Cells &c)
{
    const SystemConfig cfg;
    return str("TSOPER's AGB as ", cfg.nvmRanks, " per-channel slices or "
               "as one buffer; both pool ", cfg.agbSliceLines * cfg.nvmRanks,
               " lines.\n\n") +
           ratios({{"distributed", sweep(c, "tsoper")},
                   {"centralized", sweep(c, "tsoper", &kCentralAgb)}},
                  0, {{1, 0}, {0, 1}});
}

using Block = std::string (*)(Cells &);

const std::pair<std::string, Block> kBlocks[] = {
    {"table1", table1},    {"fig11", fig11},
    {"fig12", fig12},      {"fig13", fig13},
    {"fig14", fig14},      {"fig15", fig15},
    {"slc-mesi", slcMesi}, {"list-lengths", listLengths},
    {"a1", a1},            {"a2a", a2a},
    {"a2b", a2b},          {"a3", a3},
    {"a4", a4},
};

/**
 * @p text with every block's body rendered from @p cells.  Each block
 * whose old body differs is named in @p diffs (when given), with its
 * fresh text; an unknown or unclosed block throws.
 */
std::string
rebuild(const std::string &path, const std::string &text, Cells &cells,
        std::string *diffs)
{
    const std::string open = "<!-- generated: ", close = "<!-- /generated -->";
    std::istringstream in(text);
    std::string out;
    for (std::string line; std::getline(in, line);) {
        out += line + "\n";
        if (!line.starts_with(open))
            continue;
        const std::string name =
            line.substr(open.size(), line.find(" -->") - open.size());
        const auto *block =
            std::find_if(std::begin(kBlocks), std::end(kBlocks),
                         [&](const auto &b) { return b.first == name; });
        if (block == std::end(kBlocks))
            throw std::runtime_error("unknown block '" + name + "'");
        std::string body;
        while (std::getline(in, line) && line != close &&
               !line.starts_with(open))
            body += line + "\n";
        if (line != close)
            throw std::runtime_error("unclosed block '" + name + "'");
        const std::string fresh = "\n" + block->second(cells) + "\n";
        if (diffs && fresh != body)
            *diffs += path + ": block " + name + " differs; fresh text:\n" +
                      fresh;
        out += fresh + close + "\n";
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool check = false, usage = false;
    std::vector<std::pair<std::string, std::string>> docs; // path, text
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        check |= arg == "--check";
        usage |= arg != "--check" && arg.starts_with("-");
        if (!arg.starts_with("-"))
            docs.push_back({arg, ""});
    }
    if (usage || docs.empty()) {
        std::cerr << "usage: experiments [--check] DOC...\n";
        return 2;
    }
    Cells cells;
    for (auto &[path, text] : docs) {
        std::ifstream in(path);
        std::ostringstream os;
        os << in.rdbuf();
        text = os.str();
        try {
            if (!in)
                throw std::runtime_error("cannot read");
            rebuild(path, text, cells, nullptr); // collects the cells
        } catch (const std::runtime_error &e) {
            std::cerr << path << ": " << e.what() << "\n";
            return 2;
        }
    }
    if (!cells.run())
        return 1;

    std::string diffs;
    for (const auto &[path, text] : docs) {
        const std::string fresh = rebuild(path, text, cells, &diffs);
        if (!check && fresh != text && !(std::ofstream(path) << fresh)) {
            std::cerr << path << ": cannot write\n";
            return 2;
        }
    }
    if (check)
        std::cout << diffs;
    return check && !diffs.empty() ? 1 : 0;
}
