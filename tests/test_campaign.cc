/** @file Tests for the campaign subsystem: spec expansion, the
 *  cooperative budget and retry classification, the job loop, runOne,
 *  determinism across job counts, report aggregation, and the
 *  journal. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "campaign/builtin.hh"
#include "campaign/journal.hh"
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
    opt.retries = 1;
    opt.backoffBaseMs = 0;
    opt.cellFn = [&](const RunRequest &) {
        ++attempts;
        RunResult res;
        res.status = RunStatus::Timeout;
        return res;
    };

    const CellReport cell = runCell(fakeRequest("hung"), opt);
    EXPECT_EQ(cell.result.status, RunStatus::Timeout);
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_EQ(attempts, 2);
    // Out of retries with a retryable verdict -> quarantined, and the
    // full attempt history is preserved.
    EXPECT_TRUE(cell.quarantined);
    ASSERT_EQ(cell.attemptLog.size(), 2u);
    EXPECT_EQ(cell.attemptLog[0].status, RunStatus::Timeout);
    EXPECT_EQ(cell.attemptLog[1].status, RunStatus::Timeout);
}

TEST(Runner, FlakyCellSucceedsOnRetry)
{
    int attempts = 0;
    RunnerOptions opt;
    opt.retries = 1;
    opt.backoffBaseMs = 0;
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
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_FALSE(cell.quarantined);
    ASSERT_EQ(cell.attemptLog.size(), 2u);
    EXPECT_EQ(cell.attemptLog[0].status, RunStatus::Timeout);
    EXPECT_EQ(cell.attemptLog[0].detail, "transient");
    EXPECT_EQ(cell.attemptLog[1].status, RunStatus::Ok);
}

TEST(Runner, RetriesBackOffExponentially)
{
    int attempts = 0;
    RunnerOptions opt;
    opt.retries = 2;
    opt.backoffBaseMs = 40;
    opt.cellFn = [&](const RunRequest &) {
        ++attempts;
        RunResult res;
        res.status = RunStatus::Timeout;
        return res;
    };

    const auto start = std::chrono::steady_clock::now();
    const CellReport cell = runCell(fakeRequest("sick"), opt);
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_EQ(attempts, 3);
    EXPECT_TRUE(cell.quarantined);
    // Backoff before attempt 2 is 40 ms, before attempt 3 is 80 ms.
    EXPECT_GE(elapsed.count(), 120);
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
        EXPECT_FALSE(cell.quarantined) << toString(status);
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
    opt.backoffBaseMs = 0;

    const unsigned threads = threadCount();
    ASSERT_GT(threads, 0u);
    const CellReport cell = runCell(r, opt);
    EXPECT_EQ(cell.result.status, RunStatus::Timeout)
        << cell.result.detail;
    EXPECT_NE(cell.result.detail.find("wall-clock budget"),
              std::string::npos)
        << cell.result.detail;
    EXPECT_EQ(cell.attempts, 2u);
    EXPECT_TRUE(cell.quarantined);
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
        opt.backoffBaseMs = 0;
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
        // cell7 times out on its only attempt, so it lands in
        // quarantine and stays out of the per-status totals.
        EXPECT_EQ(report.count(RunStatus::Timeout), 0u);
        EXPECT_EQ(report.quarantinedCount(), 1u);
        EXPECT_TRUE(report.cells[7].quarantined);
        EXPECT_FALSE(report.allOk());
        EXPECT_NE(report.summary().find("23 ok"), std::string::npos);
        EXPECT_NE(report.summary().find("1 quarantined"),
                  std::string::npos);
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
    opt.backoffBaseMs = 0;
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

TEST(Report, CellJsonRoundTripsExactly)
{
    CellReport cell;
    cell.request = fakeRequest("tsoper/radix/x0.1/s1");
    cell.request.crashAt = 0.5;
    cell.request.check = true;
    cell.result.status = RunStatus::Crashed;
    cell.result.detail = "child killed by SIGSEGV";
    cell.result.cycles = 987;
    cell.result.signalName = "SIGSEGV";
    cell.result.stderrTail = "boom";
    cell.result.exitCode = 6;
    cell.attempts = 2;
    cell.wallMs = 12.5;
    cell.quarantined = true;
    cell.attemptLog = {{RunStatus::Crashed, 6.25, "first"},
                       {RunStatus::Crashed, 6.25, "second"}};

    CellReport back;
    std::string err;
    ASSERT_TRUE(cellReportFromJson(cell.toJson(), &back, &err)) << err;
    // The serialized forms must be byte-identical: journal resume
    // reuses these verbatim.
    EXPECT_EQ(back.toJson().dump(), cell.toJson().dump());
    EXPECT_EQ(back.request, cell.request);
    EXPECT_TRUE(back.quarantined);
    ASSERT_EQ(back.attemptLog.size(), 2u);
    EXPECT_EQ(back.attemptLog[1].detail, "second");
}

// --- Journal / resume -------------------------------------------------

namespace
{

CellReport
okCell(const std::string &id, Cycle cycles)
{
    CellReport cell;
    cell.request = fakeRequest(id);
    cell.result.status = RunStatus::Ok;
    cell.result.cycles = cycles;
    cell.result.stats = Json::object();
    return cell;
}

} // namespace

TEST(Journal, AppendAndLoadRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_journal_rt.jsonl";
    std::string err;

    // Cell "a" carries both audits: a resumed cell must keep them.
    CellReport audited = okCell("a", 10);
    audited.result.audited = true;
    audited.result.durableWords = 7;
    audited.result.persistAudited = true;
    audited.result.persistAuditOk = true;
    audited.result.persistCommits = 3;
    audited.result.persistEdges = 1;
    audited.result.persistGroups = 2;

    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path, "rt", /*truncate=*/true, &err))
        << err;
    journal.append(audited);
    journal.append(okCell("b", 20));
    journal.close();

    JournalIndex idx;
    ASSERT_TRUE(loadJournal(path, &idx, &err)) << err;
    EXPECT_EQ(idx.campaign, "rt");
    ASSERT_EQ(idx.cells.size(), 2u);
    const RunResult &a = idx.cells.at("a").result;
    EXPECT_EQ(a.cycles, 10u);
    EXPECT_TRUE(a.audited);
    EXPECT_EQ(a.durableWords, 7u);
    EXPECT_TRUE(a.persistAudited);
    EXPECT_TRUE(a.persistAuditOk);
    EXPECT_EQ(a.persistCommits, 3u);
    EXPECT_EQ(a.persistEdges, 1u);
    EXPECT_EQ(a.persistGroups, 2u);
    EXPECT_EQ(idx.cells.at("a").toJson().dump(), audited.toJson().dump());
    EXPECT_FALSE(idx.cells.at("b").result.persistAudited);
    EXPECT_EQ(idx.cells.at("b").result.cycles, 20u);
    std::remove(path.c_str());
}

TEST(Journal, ToleratesTornFinalLineAndRejectsWrongFormat)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_journal_torn.jsonl";
    std::string err;

    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path, "torn", /*truncate=*/true, &err));
    journal.append(okCell("a", 10));
    journal.close();
    {
        // A crash mid-append leaves a half-written trailing line.
        std::ofstream os(path, std::ios::app);
        os << "{\"id\":\"b\",\"status\":\"o";
    }
    JournalIndex idx;
    ASSERT_TRUE(loadJournal(path, &idx, &err)) << err;
    EXPECT_EQ(idx.cells.size(), 1u);
    EXPECT_TRUE(idx.cells.count("a"));

    {
        std::ofstream os(path, std::ios::trunc);
        os << "{\"format\":\"something/else\"}\n";
    }
    EXPECT_FALSE(loadJournal(path, &idx, &err));
    EXPECT_NE(err.find("journal"), std::string::npos);
    std::remove(path.c_str());
}

TEST(Journal, TornFinalLineToleratedAtEveryByteOffset)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_journal_every_cut.jsonl";
    std::string err;

    {
        CampaignJournal journal;
        ASSERT_TRUE(journal.open(path, "torn", /*truncate=*/true, &err))
            << err;
        journal.append(okCell("keep0", 10));
        journal.append(okCell("keep1", 20));
        journal.append(okCell("torn", 30));
    }

    std::string full;
    {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        full = buf.str();
    }
    // Start of the final record: the byte after the second-to-last
    // newline (the file ends with one).
    ASSERT_FALSE(full.empty());
    ASSERT_EQ(full.back(), '\n');
    const std::size_t lastStart = full.rfind('\n', full.size() - 2) + 1;
    const std::size_t lastLen = full.size() - lastStart;
    ASSERT_GT(lastLen, 2u);

    // A writer can die after any byte of the final append.  Whatever
    // the cut, the journal must load and keep the intact prefix.  Two
    // cuts are special: +0 ends cleanly on the previous newline (no
    // warning, nothing torn) and +lastLen-1 severs only the trailing
    // newline, leaving a complete third record.
    for (std::size_t cut = 0; cut < lastLen; ++cut) {
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(full.data(),
                      static_cast<std::streamsize>(lastStart + cut));
        }
        JournalIndex index;
        std::string warn;
        ASSERT_TRUE(loadJournal(path, &index, &err, &warn))
            << "cut at +" << cut << ": " << err;
        EXPECT_TRUE(index.cells.count("keep0"));
        EXPECT_TRUE(index.cells.count("keep1"));
        if (cut == 0) {
            EXPECT_EQ(index.cells.size(), 2u);
            EXPECT_TRUE(warn.empty()) << warn; // clean end-of-file
        } else if (cut == lastLen - 1) {
            EXPECT_EQ(index.cells.size(), 3u); // record is whole
            EXPECT_TRUE(warn.empty()) << warn;
        } else {
            EXPECT_EQ(index.cells.size(), 2u) << "cut at +" << cut;
            EXPECT_NE(warn.find("torn"), std::string::npos)
                << "cut at +" << cut << ": no warning";
        }
    }
    std::remove(path.c_str());
}

TEST(Journal, ResumeRunsOnlyUnjournaledCells)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_journal_resume.jsonl";
    std::string err;

    std::vector<RunRequest> cells;
    for (int i = 0; i < 4; ++i)
        cells.push_back(fakeRequest("cell" + std::to_string(i)));

    std::atomic<int> executed{0};
    RunnerOptions opt;
    opt.jobs = 2;
    opt.backoffBaseMs = 0;
    opt.cellFn = [&](const RunRequest &r) {
        executed.fetch_add(1);
        RunResult res;
        res.status = RunStatus::Ok;
        res.cycles = 100 + (r.id.back() - '0');
        res.stats = Json::object();
        return res;
    };

    // First run covers only the first two cells, as if the campaign
    // was interrupted halfway.
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path, "resume", /*truncate=*/true, &err));
    opt.journal = &journal;
    const CampaignReport first = runCampaign(
        "resume", {cells[0], cells[1]}, opt);
    journal.close();
    EXPECT_EQ(executed.load(), 2);

    JournalIndex idx;
    ASSERT_TRUE(loadJournal(path, &idx, &err)) << err;
    ASSERT_EQ(idx.cells.size(), 2u);

    // The resumed run executes only the two missing cells...
    opt.journal = nullptr;
    opt.resumeFrom = &idx;
    const CampaignReport second = runCampaign("resume", cells, opt);
    EXPECT_EQ(executed.load(), 4);
    EXPECT_EQ(second.resumedCount(), 2u);
    EXPECT_TRUE(second.allOk());

    // ...and the journaled cells come back byte-identical.
    for (int i = 0; i < 2; ++i) {
        EXPECT_TRUE(second.cells[i].fromJournal);
        EXPECT_EQ(second.cells[i].toJson().dump(),
                  first.cells[i].toJson().dump());
    }
    EXPECT_FALSE(second.cells[2].fromJournal);

    // A journaled cell whose request no longer matches the manifest
    // (same id, different knobs) is re-run, not reused.
    std::vector<RunRequest> edited = cells;
    edited[0].seed = 99;
    const CampaignReport third = runCampaign("resume", edited, opt);
    EXPECT_EQ(executed.load(), 4 + 3);
    EXPECT_FALSE(third.cells[0].fromJournal);
    EXPECT_TRUE(third.cells[1].fromJournal);
    std::remove(path.c_str());
}
