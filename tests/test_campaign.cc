/** @file Tests for the campaign subsystem: spec expansion, the
 *  cooperative budget and retry classification, the job loop, runOne,
 *  determinism across job counts, and report aggregation. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/builtin.hh"
#include "campaign/report.hh"
#include "campaign/runner.hh"
#include "campaign/spec.hh"

using namespace tsoper;
using namespace tsoper::campaign;

// --- Spec expansion ---------------------------------------------------

namespace
{

CampaignSpec
smallSpec()
{
    CampaignSpec spec;
    spec.name = "grid";
    spec.engines = {"tsoper", "stw"};
    spec.benches = {"radix", "dedup"};
    spec.scales = {0.1};
    spec.seeds = {1, 2};
    spec.crashFractions = {0.25, 0.75};
    spec.check = true;
    return spec;
}

} // namespace

TEST(CampaignSpec, ExpansionIsDeterministicAndComplete)
{
    const CampaignSpec spec = smallSpec();
    EXPECT_EQ(spec.cellCount(), 16u);

    const std::vector<RunRequest> a = expand(spec);
    const std::vector<RunRequest> b = expand(spec);
    ASSERT_EQ(a.size(), 16u);
    EXPECT_EQ(a, b); // same spec -> byte-identical manifests

    // Unique, stable ids; engine-major order.
    std::set<std::string> ids;
    for (const RunRequest &r : a)
        ids.insert(r.id);
    EXPECT_EQ(ids.size(), a.size());
    EXPECT_EQ(a.front().id, "tsoper/radix/x0.1/s1/c0.25");
    EXPECT_EQ(a.back().id, "stw/dedup/x0.1/s2/c0.75");
}

TEST(CampaignSpec, SeedsLandInManifests)
{
    CampaignSpec spec = smallSpec();
    spec.crashFractions.clear();
    const std::vector<RunRequest> cells = expand(spec);
    ASSERT_EQ(cells.size(), 8u);
    for (const RunRequest &r : cells) {
        EXPECT_TRUE(r.seed == 1 || r.seed == 2) << r.id;
        EXPECT_EQ(r.crashAt, 0.0);
        EXPECT_TRUE(r.check);
    }
}

TEST(CampaignSpec, Validation)
{
    EXPECT_EQ(validateSpec(smallSpec()), "");

    CampaignSpec bad = smallSpec();
    bad.engines = {"warp-drive"};
    EXPECT_NE(validateSpec(bad).find("warp-drive"), std::string::npos);

    bad = smallSpec();
    bad.benches = {"pacman"};
    EXPECT_NE(validateSpec(bad).find("pacman"), std::string::npos);

    bad = smallSpec();
    bad.crashFractions = {1.5};
    EXPECT_NE(validateSpec(bad), "");

    bad = smallSpec();
    bad.scales = {0.0};
    EXPECT_NE(validateSpec(bad), "");

    bad = smallSpec();
    bad.scales = {std::numeric_limits<double>::infinity()};
    EXPECT_NE(validateSpec(bad).find("finite"), std::string::npos);

    // The knobs are checked as runOne checks them.
    bad = smallSpec();
    bad.cores = 65;
    EXPECT_NE(validateSpec(bad).find("numCores"), std::string::npos);

    bad = smallSpec();
    bad.agMaxLines = 4294967295u;
    EXPECT_NE(validateSpec(bad).find("AGB capacity"), std::string::npos);
}

TEST(CampaignSpec, ParsesTextFormat)
{
    const std::string text = R"(
# nightly grid
name            = nightly
engines         = tsoper, stw
benches         = radix, dedup
scales          = 0.1, 0.5
seeds           = 1, 2, 3
crash-fractions = 0.5
check           = true
cores           = 4
timeout-ms      = 9000
retries         = 2
)";
    CampaignSpec spec;
    std::string err;
    ASSERT_TRUE(parseSpecText(text, &spec, &err)) << err;
    EXPECT_EQ(spec.name, "nightly");
    EXPECT_EQ(spec.engines,
              (std::vector<std::string>{"tsoper", "stw"}));
    EXPECT_EQ(spec.benches, (std::vector<std::string>{"radix", "dedup"}));
    EXPECT_EQ(spec.scales, (std::vector<double>{0.1, 0.5}));
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{1, 2, 3}));
    EXPECT_EQ(spec.crashFractions, (std::vector<double>{0.5}));
    EXPECT_TRUE(spec.check);
    EXPECT_EQ(spec.cores, 4u);
    EXPECT_EQ(spec.timeoutMs, 9000u);
    EXPECT_EQ(spec.retries, 2u);
    EXPECT_EQ(validateSpec(spec), "");
}

TEST(CampaignSpec, ParseErrorsCarryLineNumbers)
{
    CampaignSpec spec;
    std::string err;
    EXPECT_FALSE(parseSpecText("engines tsoper", &spec, &err));
    EXPECT_NE(err.find("line 1"), std::string::npos);
    EXPECT_FALSE(parseSpecText("\nwibble = 3", &spec, &err));
    EXPECT_NE(err.find("line 2"), std::string::npos);
    EXPECT_FALSE(parseSpecText("seeds = one", &spec, &err));
    EXPECT_FALSE(parseSpecText("check = maybe", &spec, &err));

    // Numbers are digits only and fit their field: no sign, no
    // trailing text, nothing that wraps when narrowed; scales and
    // crash fractions are finite numbers spanning the whole value.
    for (const char *bad :
         {"cores = 4294967300", "timeout-ms = 4294967297",
          "timeout-ms = 86400001", "retries = 101", "seeds = -1",
          "seeds = +1", "seeds = 18446744073709551616",
          "ag-max-lines = 8x", "agb-slice-lines = -1", "scales = 0.5x",
          "scales = inf", "crash-fractions = nan"}) {
        EXPECT_FALSE(parseSpecText(std::string("name = n\n") + bad, &spec,
                                   &err))
            << bad;
        EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    }
    ASSERT_TRUE(parseSpecText("timeout-ms = 86400000\nseeds = "
                              "18446744073709551615",
                              &spec, &err))
        << err;
    EXPECT_EQ(spec.timeoutMs, 86'400'000u);
    EXPECT_EQ(spec.seeds, (std::vector<std::uint64_t>{UINT64_MAX}));
}

TEST(CampaignSpec, BuiltinCampaignsAreValid)
{
    ASSERT_FALSE(builtinCampaigns().empty());
    for (const BuiltinCampaign &c : builtinCampaigns()) {
        EXPECT_EQ(validateSpec(c.spec), "") << c.name;
        EXPECT_GE(c.spec.cellCount(), 4u) << c.name;
    }
    EXPECT_NE(findBuiltinCampaign("crash-matrix"), nullptr);
    EXPECT_NE(findBuiltinCampaign("mini"), nullptr);
    EXPECT_EQ(findBuiltinCampaign("nope"), nullptr);
}

// --- Budget / retry classification -----------------------------------

namespace
{

RunRequest
fakeRequest(const std::string &id)
{
    RunRequest r;
    r.id = id;
    return r;
}

} // namespace

TEST(Runner, HungCellClassifiesAsTimeoutAfterRetry)
{
    int attempts = 0;
    RunnerOptions opt;
    opt.retries = 2;
    opt.cellFn = [&](const RunRequest &) {
        ++attempts;
        RunResult res;
        res.status = RunStatus::Timeout;
        return res;
    };

    // Re-run at once, `retries` times, then reported as a timeout.
    const CellReport cell = runCell(fakeRequest("hung"), opt);
    EXPECT_EQ(cell.result.status, RunStatus::Timeout);
    EXPECT_EQ(cell.attempts, 3u);
    EXPECT_EQ(attempts, 3);
}

TEST(Runner, FlakyCellSucceedsOnRetry)
{
    int attempts = 0;
    RunnerOptions opt;
    opt.retries = 1;
    opt.cellFn = [&](const RunRequest &) {
        RunResult res;
        if (attempts++ == 0) {
            res.status = RunStatus::Timeout;
            res.detail = "transient";
        } else {
            res.status = RunStatus::Ok;
        }
        return res;
    };

    const CellReport cell = runCell(fakeRequest("flaky"), opt);
    EXPECT_EQ(cell.result.status, RunStatus::Ok);
    EXPECT_EQ(cell.result.detail, "");
    EXPECT_EQ(cell.attempts, 2u);
}

TEST(Runner, DeterministicVerdictsAreNotRetried)
{
    // An in-process crash is a panic or exception: it reproduces under
    // the same seed, like the other verdicts here.
    for (const RunStatus status :
         {RunStatus::CheckFailed, RunStatus::BadRequest, RunStatus::Hung,
          RunStatus::Crashed}) {
        int attempts = 0;
        RunnerOptions opt;
        opt.retries = 3;
        opt.cellFn = [&](const RunRequest &) {
            ++attempts;
            RunResult res;
            res.status = status;
            return res;
        };

        const CellReport cell = runCell(fakeRequest("torn"), opt);
        EXPECT_EQ(cell.result.status, status) << toString(status);
        EXPECT_EQ(cell.attempts, 1u) << toString(status);
        EXPECT_EQ(attempts, 1) << toString(status);
    }
}

TEST(Runner, EscapingExceptionClassifiesAsCrashed)
{
    RunnerOptions opt;
    opt.cellFn = [](const RunRequest &) -> RunResult {
        throw std::runtime_error("cell blew up");
    };

    const CellReport cell = runCell(fakeRequest("throws"), opt);
    EXPECT_EQ(cell.result.status, RunStatus::Crashed);
    EXPECT_EQ(cell.result.detail, "cell blew up");
    EXPECT_EQ(cell.attempts, 1u);
}

namespace
{

/** Threads of this process, from /proc/self/status. */
unsigned
threadCount()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    unsigned n = 0;
    while (status >> key) {
        if (key == "Threads:") {
            status >> n;
            break;
        }
    }
    return n;
}

} // namespace

TEST(Runner, BudgetShorterThanFirstChunkTimesOutRealCell)
{
    // radix at x10 executes about 4.2 M events, more than two 2 M-event
    // watchdog chunks, and no host runs a chunk within 1 ms, so every
    // attempt stops at a chunk boundary: the first, or the second if
    // set-up beat the budget.
    RunRequest r;
    r.id = "tsoper/radix/x10/s1";
    r.bench = "radix";
    r.scale = 10;
    RunnerOptions opt;
    opt.timeout = std::chrono::milliseconds(1);
    opt.retries = 1;

    const unsigned threads = threadCount();
    ASSERT_GT(threads, 0u);
    const CellReport cell = runCell(r, opt);
    EXPECT_EQ(cell.result.status, RunStatus::Timeout)
        << cell.result.detail;
    EXPECT_NE(cell.result.detail.find("wall-clock budget"),
              std::string::npos)
        << cell.result.detail;
    EXPECT_EQ(cell.attempts, 2u);
    // Each attempt ran on this thread, and nothing outlives runCell.
    EXPECT_EQ(threadCount(), threads);
}

TEST(Runner, CampaignAggregatesInExpansionOrder)
{
    constexpr int kCells = 24;
    std::vector<RunRequest> cells;
    for (int i = 0; i < kCells; ++i)
        cells.push_back(fakeRequest("cell" + std::to_string(i)));

    for (const unsigned jobs : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(kCells);
        std::mutex idsMutex;
        std::set<std::thread::id> ids; // under idsMutex
        RunnerOptions opt;
        opt.jobs = jobs;
        opt.retries = 0;
        opt.cellFn = [&](const RunRequest &r) {
            hits[std::stoi(r.id.substr(4))].fetch_add(1);
            {
                std::lock_guard<std::mutex> lock(idsMutex);
                ids.insert(std::this_thread::get_id());
            }
            // Finish out of order on purpose.
            if (r.id == "cell0")
                std::this_thread::sleep_for(std::chrono::milliseconds(30));
            RunResult res;
            res.status = r.id == "cell7" ? RunStatus::Timeout
                                         : RunStatus::Ok;
            res.detail = r.id;
            return res;
        };

        const CampaignReport report = runCampaign("order", cells, opt);
        ASSERT_EQ(report.cells.size(), std::size_t(kCells));
        for (int i = 0; i < kCells; ++i) {
            EXPECT_EQ(report.cells[i].request.id,
                      "cell" + std::to_string(i));
            // Every cell is taken by exactly one job.
            EXPECT_EQ(hits[i].load(), 1) << "cell" << i;
        }
        // One job is the calling thread alone; N jobs are at most N
        // threads, the caller included.
        if (jobs == 1)
            EXPECT_EQ(ids, std::set{std::this_thread::get_id()});
        else
            EXPECT_LE(ids.size(), jobs);
        EXPECT_EQ(report.count(RunStatus::Ok), 23u);
        // cell7 times out on its only attempt and counts as a timeout.
        EXPECT_EQ(report.count(RunStatus::Timeout), 1u);
        EXPECT_EQ(report.cells[7].result.status, RunStatus::Timeout);
        EXPECT_FALSE(report.allOk());
        EXPECT_EQ(report.summary(), "24 cells: 23 ok, 1 timeout");
    }
}

// --- runOne on the real simulator ------------------------------------

TEST(RunOne, UnknownEngineAndBenchAreBadRequests)
{
    RunRequest r;
    r.engine = "warp-drive";
    RunResult res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::BadRequest);
    EXPECT_NE(res.detail.find("warp-drive"), std::string::npos);

    r = RunRequest{};
    r.bench = "pacman";
    res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::BadRequest);
    EXPECT_NE(res.detail.find("pacman"), std::string::npos);

    // Out-of-range knobs are found before anything is built: no
    // System, so no stats.
    r = RunRequest{};
    r.cores = 65;
    res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::BadRequest);
    EXPECT_EQ(res.detail, "numCores must be in [1, 64], got 65");
    EXPECT_TRUE(res.stats.isNull());

    r = RunRequest{};
    r.agMaxLines = 1u << 20; // above the AGB's capacity
    res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::BadRequest);
    EXPECT_NE(res.detail.find("cannot exceed total AGB capacity"),
              std::string::npos)
        << res.detail;

    r = RunRequest{};
    r.flightRecorder = 100'000'000; // 4.8 GB of ring if allocated
    res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::BadRequest);
    EXPECT_NE(res.detail.find("flight-recorder depth"), std::string::npos)
        << res.detail;

    // A scale the generator cannot honour, or a crash point that is
    // neither a fraction nor a cycle, is rejected before any workload
    // is built.
    for (double scale : {-1.0, 0.0, 1e9}) {
        r = RunRequest{};
        r.scale = scale;
        res = runOne(r);
        EXPECT_EQ(res.status, RunStatus::BadRequest) << scale;
        EXPECT_EQ(res.detail.rfind("scale must be finite and in "
                                   "(0, 1000], got ",
                                   0),
                  0u)
            << res.detail;
        EXPECT_TRUE(res.stats.isNull());
    }
    r = RunRequest{};
    r.crashAt = -0.5;
    res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::BadRequest);
    EXPECT_EQ(res.detail, "crash-at must be 0 (no crash), a fraction in "
                          "(0, 1] or a cycle in (1, 2^64), got -0.5");
    EXPECT_TRUE(res.stats.isNull());
}

TEST(RunOne, TinyAuditedRunProducesStats)
{
    RunRequest r;
    r.id = "tsoper/dedup/x0.05/s1";
    r.bench = "dedup";
    r.scale = 0.05;
    r.check = true;
    const RunResult res = runOne(r);
    ASSERT_EQ(res.status, RunStatus::Ok) << res.detail;
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(res.ops, 0u);
    EXPECT_TRUE(res.audited);
    EXPECT_GT(res.durableWords, 0u);
    ASSERT_TRUE(res.stats.isObject());
    EXPECT_GT(res.stats["counters"].size(), 0u);

    // Determinism: the same request yields byte-identical stats.
    const RunResult again = runOne(r);
    EXPECT_EQ(again.stats.dump(), res.stats.dump());
    EXPECT_EQ(again.cycles, res.cycles);
}

TEST(RunOne, PastDeadlineTimesOutBeforeAnyEvent)
{
    // The deadline is checked before the first event chunk of every
    // phase: a plain run, a crash run's timing pre-run, and a run to
    // an absolute crash cycle.
    RunRequest run;
    run.bench = "dedup";
    run.scale = 0.05;
    RunRequest crashFraction = run;
    crashFraction.crashAt = 0.5;
    RunRequest crashCycle = run;
    crashCycle.crashAt = 5000;

    bool finished = false;
    RunHooks hooks;
    hooks.deadline = std::chrono::steady_clock::now();
    hooks.onFinished = [&](System &) { finished = true; };
    for (const RunRequest &r : {run, crashFraction, crashCycle}) {
        const RunResult res = runOne(r, hooks);
        EXPECT_EQ(res.status, RunStatus::Timeout) << res.detail;
        EXPECT_NE(res.detail.find("at cycle 0 after 0 events"),
                  std::string::npos)
            << res.detail;
    }
    EXPECT_FALSE(finished);
}

TEST(RunOne, CrashCellAuditsDurableState)
{
    RunRequest r;
    r.engine = "stw";
    r.bench = "dedup";
    r.scale = 0.05;
    r.crashAt = 0.5;
    r.check = true;
    const RunResult res = runOne(r);
    ASSERT_EQ(res.status, RunStatus::Ok) << res.detail;
    EXPECT_GT(res.crashCycle, 0u);
    EXPECT_TRUE(res.audited);
    EXPECT_FALSE(res.recoverySummary.empty());
}

// --- Determinism across jobs ------------------------------------------

TEST(CampaignDeterminism, CanonicalReportIdenticalAtOneAndFourJobs)
{
    // Cells across cores is the simulator's one parallelism axis: the
    // same cells run on one job and on four must give byte-identical
    // canonical reports, every cell's full statistics and persist
    // audit included.  Each System has its own trace bus, so audited
    // cells running at once must not see each other's records.
    std::vector<RunRequest> cells =
        expand(findBuiltinCampaign("mini")->spec);
    RunRequest crash;
    crash.id = "tsoper/radix/x0.05/s1/c0.5";
    crash.engine = "tsoper";
    crash.bench = "radix";
    crash.scale = 0.05;
    crash.crashAt = 0.5;
    crash.check = true;
    cells.push_back(crash);
    for (RunRequest &r : cells)
        r.auditPersists = true;

    RunnerOptions opt;
    opt.jobs = 1;
    const CampaignReport serial = runCampaign("determinism", cells, opt);
    opt.jobs = 4;
    const CampaignReport parallel = runCampaign("determinism", cells, opt);

    ASSERT_TRUE(serial.allOk()) << serial.summary();
    ASSERT_TRUE(parallel.allOk()) << parallel.summary();
    ASSERT_EQ(serial.cells.size(), 5u);
    for (const CampaignReport *report : {&serial, &parallel}) {
        for (const CellReport &c : report->cells) {
            EXPECT_GT(c.result.stats["counters"].size(), 0u)
                << c.request.id;
            EXPECT_TRUE(c.result.persistAudited) << c.request.id;
            EXPECT_TRUE(c.result.persistAuditOk)
                << c.request.id << ": " << c.result.persistAuditDetail;
            EXPECT_GT(c.result.persistCommits, 0u) << c.request.id;
        }
    }
    EXPECT_GT(serial.cells.back().result.crashCycle, 0u);
    EXPECT_EQ(canonicalReportJson(serial).dump(),
              canonicalReportJson(parallel).dump());
}

// --- Report JSON ------------------------------------------------------

TEST(Report, JsonRoundTripsThroughParser)
{
    std::vector<RunRequest> cells;
    cells.push_back(fakeRequest("a"));
    cells.push_back(fakeRequest("b"));

    RunnerOptions opt;
    opt.jobs = 2;
    opt.cellFn = [](const RunRequest &) {
        RunResult res;
        res.status = RunStatus::Ok;
        res.cycles = 1234;
        res.stats = Json::object();
        return res;
    };
    const CampaignReport report = runCampaign("rt", cells, opt);

    Json doc;
    ASSERT_TRUE(Json::parse(report.toJson().dump(2), &doc));
    EXPECT_EQ(doc["campaign"].asString(), "rt");
    EXPECT_EQ(doc["totals"]["cells"].asUint(), 2u);
    EXPECT_EQ(doc["totals"]["ok"].asUint(), 2u);
    EXPECT_EQ(doc["cells"].at(0)["id"].asString(), "a");
    EXPECT_EQ(doc["cells"].at(0)["cycles"].asUint(), 1234u);
}

TEST(Report, WriteAndVerifyFile)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_report_test.json";

    CampaignReport report;
    report.name = "verify";
    CellReport ok;
    ok.request = fakeRequest("good");
    ok.result.status = RunStatus::Ok;
    report.cells.push_back(ok);

    std::string err;
    ASSERT_TRUE(writeReportFile(report, path, &err)) << err;
    EXPECT_TRUE(verifyReportFile(path, /*requireAllOk=*/true, &err))
        << err;

    CellReport bad;
    bad.request = fakeRequest("torn");
    bad.result.status = RunStatus::CheckFailed;
    report.cells.push_back(bad);
    ASSERT_TRUE(writeReportFile(report, path, &err)) << err;
    EXPECT_TRUE(verifyReportFile(path, /*requireAllOk=*/false, &err))
        << err;
    EXPECT_FALSE(verifyReportFile(path, /*requireAllOk=*/true, &err));
    EXPECT_NE(err.find("torn"), std::string::npos);
}

TEST(Report, CellJsonKeepsFieldOrder)
{
    // An audited crash cell whose audits both failed: the request's
    // fields, the result's, the retry bookkeeping, then the stats.
    CellReport cell;
    cell.request.id = "tsoper/radix/x0.1/s1/c0.5";
    cell.request.bench = "radix";
    cell.request.scale = 0.1;
    cell.request.crashAt = 0.5;
    cell.request.check = true;
    cell.request.auditPersists = true;
    RunResult &res = cell.result;
    res.status = RunStatus::CheckFailed;
    res.detail = "word 0x40 lost";
    res.cycles = 31234;
    res.drainCycles = 120;
    res.crashCycle = 15617;
    res.ops = 2011;
    res.stores = 633;
    res.recoverySummary = "recovered 57 lines";
    res.audited = true;
    res.durableLines = 57;
    res.durableWords = 320;
    res.bufferRecoveredLines = 2;
    res.requiredStores = 311;
    res.persistAudited = true;
    res.persistAuditDetail = "core 2 group 7 persisted before group 6";
    res.persistCommits = 40;
    res.persistEdges = 12;
    res.persistGroups = 38;
    res.stats = Json::object();
    cell.wallMs = 12.5;

    EXPECT_EQ(
        cell.toJson().dump(),
        "{\"id\":\"tsoper/radix/x0.1/s1/c0.5\","
        "\"engine\":\"tsoper\",\"bench\":\"radix\",\"scale\":0.1,"
        "\"seed\":1,\"cores\":8,\"crash_at\":0.5,\"check\":true,"
        "\"audit_persists\":true,\"max_cycles\":4000000000,"
        "\"status\":\"check-failed\",\"detail\":\"word 0x40 lost\","
        "\"cycles\":31234,\"drain_cycles\":120,"
        "\"crash_cycle\":15617,\"ops\":2011,\"stores\":633,"
        "\"recovery_summary\":\"recovered 57 lines\","
        "\"audit\":{\"durable_lines\":57,\"durable_words\":320,"
        "\"buffer_recovered_lines\":2,\"required_stores\":311},"
        "\"persist_audit\":{\"ok\":false,"
        "\"detail\":\"core 2 group 7 persisted before group 6\","
        "\"commits\":40,\"edges\":12,\"groups\":38},\"attempts\":1,"
        "\"wall_ms\":12.5,\"stats\":{}}");
}
