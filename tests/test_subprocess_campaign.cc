/** @file End-to-end tests for the subprocess cell executor: a real
 *  tsoper_sim child per attempt, with deliberate misbehaviour
 *  (SIGSEGV, hang, runaway allocation) injected via --selftest to
 *  prove containment, classification, reaping, and quarantine.
 *
 *  TSOPER_SIM_BINARY is injected by tests/CMakeLists.txt as
 *  $<TARGET_FILE:tsoper_cli>, so the child is always the binary built
 *  alongside this test. */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <unistd.h>

#include "campaign/journal.hh"
#include "campaign/runner.hh"
#include "campaign/subprocess.hh"
#include "workload/generators.hh"
#include "workload/trace_io.hh"

using namespace tsoper;
using namespace tsoper::campaign;

#if defined(__SANITIZE_ADDRESS__)
#define TSOPER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define TSOPER_ASAN 1
#endif
#endif
#ifndef TSOPER_ASAN
#define TSOPER_ASAN 0
#endif

namespace
{

#if TSOPER_ASAN
// ASan intercepts SIGSEGV and exits 1 by default, which would
// reclassify the segv selftest child as CheckFailed instead of
// Crashed.  Children read ASAN_OPTIONS at startup, so turning the
// interception off here covers every child this test spawns; the
// parent's runtime read its own options long before this runs.
const bool disableChildSegvHandling = [] {
    const char *prev = std::getenv("ASAN_OPTIONS");
    std::string opts = prev ? std::string(prev) + ":" : std::string();
    opts += "handle_segv=0";
    ::setenv("ASAN_OPTIONS", opts.c_str(), 1);
    return true;
}();
#endif

RunRequest
tinyRequest(const std::string &id)
{
    RunRequest r;
    r.id = id;
    r.bench = "dedup";
    r.scale = 0.05;
    r.check = true;
    return r;
}

SubprocessOptions
simOptions()
{
    SubprocessOptions opt;
    opt.simBinary = TSOPER_SIM_BINARY;
    return opt;
}

/** The pid must be fully reaped: not running, not a zombie. */
void
expectReaped(int pid)
{
    ASSERT_GT(pid, 0);
    errno = 0;
    const int rc = ::kill(pid, 0);
    // Either the pid is gone entirely, or it was already recycled by
    // an unrelated process we have no right to signal.
    EXPECT_TRUE(rc == -1) << "child " << pid << " still signalable";
    if (rc == -1) {
        EXPECT_TRUE(errno == ESRCH || errno == EPERM) << errno;
    }
}

} // namespace

TEST(Subprocess, RequestToArgvCoversEveryKnob)
{
    RunRequest r = tinyRequest("argv");
    r.engine = "stw";
    r.seed = 7;
    r.cores = 4;
    r.agMaxLines = 12;
    r.agbSliceLines = 3;
    r.crashAt = 0.5;
    r.maxCycles = 999;

    const std::vector<std::string> argv = requestToArgv(r, "simbin");
    EXPECT_EQ(argv.front(), "simbin");
    const auto has = [&](const std::string &s) {
        for (const std::string &a : argv)
            if (a == s)
                return true;
        return false;
    };
    EXPECT_TRUE(has("--engine=stw"));
    EXPECT_TRUE(has("--bench=dedup"));
    EXPECT_TRUE(has("--seed=7"));
    EXPECT_TRUE(has("--cores=4"));
    EXPECT_TRUE(has("--ag-max-lines=12"));
    EXPECT_TRUE(has("--agb-slice-lines=3"));
    EXPECT_TRUE(has("--crash-at=0.5"));
    EXPECT_TRUE(has("--check"));
    EXPECT_TRUE(has("--max-cycles=999"));
}

TEST(Subprocess, OkCellHasFullFidelityVersusInProcess)
{
    const RunRequest r = tinyRequest("parity");

    const RunResult inProc = runOne(r);
    ASSERT_EQ(inProc.status, RunStatus::Ok) << inProc.detail;

    const SubprocessOutcome out = runSubprocess(r, simOptions());
    ASSERT_EQ(out.result.status, RunStatus::Ok) << out.result.detail;
    expectReaped(out.pid);

    // The child round-trips its RunResult through --result-json, so
    // nothing is lost versus running in-process.
    EXPECT_EQ(out.result.cycles, inProc.cycles);
    EXPECT_EQ(out.result.drainCycles, inProc.drainCycles);
    EXPECT_EQ(out.result.ops, inProc.ops);
    EXPECT_EQ(out.result.audited, inProc.audited);
    EXPECT_EQ(out.result.durableWords, inProc.durableWords);
    EXPECT_EQ(out.result.stats.dump(), inProc.stats.dump());
    EXPECT_EQ(out.result.exitCode, 0);
}

TEST(Subprocess, TraceFileNamedLikeACategoryListStillDrivesTheChild)
{
    // "all" is also a trace-category list: a trace file of that name
    // must still reach the child as its workload (--trace-file=), not
    // turn tracing on over the default benchmark.
    namespace fs = std::filesystem;
    const fs::path cwd = fs::current_path();
    const fs::path dir =
        fs::temp_directory_path() /
        ("tsoper-trace-all-" + std::to_string(::getpid()));
    fs::create_directories(dir);
    fs::current_path(dir);
    saveWorkloadFile(generateByName("radix", 8, 1, 0.05), "all");

    RunRequest r = tinyRequest("trace-file-all");
    r.traceFile = "all";
    const RunResult inProc = runOne(r);
    const SubprocessOutcome out = runSubprocess(r, simOptions());
    fs::current_path(cwd);
    fs::remove_all(dir);

    ASSERT_EQ(inProc.status, RunStatus::Ok) << inProc.detail;
    ASSERT_EQ(out.result.status, RunStatus::Ok) << out.result.detail;
    const auto execCycles = [](const RunResult &res) {
        return res.stats.find("counters")
            ->find("sys.exec_cycles")
            ->asUint();
    };
    EXPECT_EQ(execCycles(out.result), execCycles(inProc));
    EXPECT_EQ(out.result.ops, inProc.ops);
}

TEST(Subprocess, SegvChildIsContainedAndClassified)
{
    SubprocessOptions opt = simOptions();
    opt.extraArgs = [](const RunRequest &) {
        return std::vector<std::string>{"--selftest=segv"};
    };

    const SubprocessOutcome out =
        runSubprocess(tinyRequest("segv"), opt);
    expectReaped(out.pid);
    EXPECT_EQ(out.result.status, RunStatus::Crashed);
    EXPECT_EQ(out.result.signalName, "SIGSEGV");
    EXPECT_NE(out.result.detail.find("SIGSEGV"), std::string::npos)
        << out.result.detail;
}

TEST(Subprocess, HangingChildIsKilledAndReaped)
{
    SubprocessOptions opt = simOptions();
    opt.timeout = std::chrono::milliseconds(400);
    opt.extraArgs = [](const RunRequest &) {
        return std::vector<std::string>{"--selftest=hang"};
    };

    const SubprocessOutcome out =
        runSubprocess(tinyRequest("hang"), opt);
    EXPECT_TRUE(out.timedOut);
    EXPECT_EQ(out.result.status, RunStatus::Timeout);
    EXPECT_EQ(out.result.signalName, "SIGKILL");
    EXPECT_NE(out.result.detail.find("SIGKILL"), std::string::npos);
    // The kill is followed by a blocking reap before runSubprocess
    // returns: no orphan may survive the call.
    expectReaped(out.pid);
}

TEST(Subprocess, MemoryRlimitContainsRunawayChild)
{
    if (TSOPER_ASAN)
        GTEST_SKIP() << "RLIMIT_AS breaks ASan shadow reservations";

    SubprocessOptions opt = simOptions();
    opt.memLimitMb = 192;
    opt.extraArgs = [](const RunRequest &) {
        return std::vector<std::string>{"--selftest=gulp"};
    };

    const SubprocessOutcome out =
        runSubprocess(tinyRequest("gulp"), opt);
    expectReaped(out.pid);
    // bad_alloc -> std::terminate -> SIGABRT inside the child.
    EXPECT_EQ(out.result.status, RunStatus::Crashed)
        << out.result.detail;
    EXPECT_EQ(out.result.signalName, "SIGABRT");
}

TEST(Subprocess, BadEngineClassifiesAsBadRequest)
{
    RunRequest r = tinyRequest("bad-engine");
    r.engine = "warp-drive";
    const SubprocessOutcome out = runSubprocess(r, simOptions());
    expectReaped(out.pid);
    EXPECT_EQ(out.result.status, RunStatus::BadRequest)
        << out.result.detail;

    // An unknown trace category or audit fault is a usage error too
    // (exit 2, the valid set on stderr), never a simulation error that
    // the runner would retry and quarantine.
    RunRequest badCategory = tinyRequest("bad-category");
    badCategory.traceCategories = "ag,bogus";
    RunRequest badFault = tinyRequest("bad-fault");
    badFault.auditPersists = true;
    badFault.auditFault = "bogus";
    for (const RunRequest &bad : {badCategory, badFault}) {
        const SubprocessOutcome o = runSubprocess(bad, simOptions());
        expectReaped(o.pid);
        EXPECT_EQ(o.result.status, RunStatus::BadRequest)
            << bad.id << ": " << o.result.detail;
        EXPECT_EQ(o.result.exitCode, 2) << bad.id;
        EXPECT_NE(o.result.stderrTail.find("'bogus' (valid: "),
                  std::string::npos)
            << o.result.stderrTail;
        EXPECT_EQ(runOne(bad).status, RunStatus::BadRequest) << bad.id;
    }
}

// --- Campaign level ---------------------------------------------------

namespace
{

RunnerOptions
subprocessRunner()
{
    RunnerOptions opt;
    opt.isolation = Isolation::Subprocess;
    opt.subprocess = simOptions();
    opt.timeout = std::chrono::milliseconds(60'000);
    opt.retries = 1;
    opt.backoffBaseMs = 0;
    opt.jobs = 2;
    return opt;
}

} // namespace

TEST(SubprocessCampaign, SickCellsAreQuarantinedHealthyOnesSurvive)
{
    RunnerOptions opt = subprocessRunner();
    opt.timeout = std::chrono::milliseconds(1500);
    opt.subprocess.extraArgs = [](const RunRequest &r) {
        std::vector<std::string> extra;
        if (r.id == "segv")
            extra.push_back("--selftest=segv");
        else if (r.id == "hang")
            extra.push_back("--selftest=hang");
        return extra;
    };

    const std::vector<RunRequest> cells = {
        tinyRequest("good"), tinyRequest("segv"), tinyRequest("hang")};
    const CampaignReport report =
        runCampaign("sick", cells, opt);

    ASSERT_EQ(report.cells.size(), 3u);
    EXPECT_EQ(report.count(RunStatus::Ok), 1u);
    EXPECT_EQ(report.quarantinedCount(), 2u);
    EXPECT_FALSE(report.allOk());
    EXPECT_NE(report.summary().find("2 quarantined"),
              std::string::npos)
        << report.summary();

    const CellReport &segv = report.cells[1];
    EXPECT_TRUE(segv.quarantined);
    EXPECT_EQ(segv.result.status, RunStatus::Crashed);
    EXPECT_EQ(segv.attempts, 2u);
    ASSERT_EQ(segv.attemptLog.size(), 2u);
    EXPECT_EQ(segv.attemptLog[0].status, RunStatus::Crashed);

    const CellReport &hang = report.cells[2];
    EXPECT_TRUE(hang.quarantined);
    EXPECT_EQ(hang.result.status, RunStatus::Timeout);
    EXPECT_EQ(hang.result.signalName, "SIGKILL");
}

TEST(SubprocessCampaign, JournalResumeSpawnsOnlyUnfinishedCells)
{
    const std::string path =
        ::testing::TempDir() + "tsoper_subproc_resume.jsonl";
    std::string err;

    std::atomic<int> spawns{0};
    RunnerOptions opt = subprocessRunner();
    opt.jobs = 1;
    opt.subprocess.extraArgs = [&](const RunRequest &) {
        spawns.fetch_add(1);
        return std::vector<std::string>{};
    };

    std::vector<RunRequest> cells;
    cells.push_back(tinyRequest("a"));
    cells.push_back(tinyRequest("b"));
    cells[1].seed = 2;

    // Interrupted sweep: only cell "a" made it into the journal.
    CampaignJournal journal;
    ASSERT_TRUE(journal.open(path, "sp", /*truncate=*/true, &err));
    opt.journal = &journal;
    const CampaignReport first =
        runCampaign("sp", {cells[0]}, opt);
    journal.close();
    ASSERT_TRUE(first.allOk()) << first.summary();
    EXPECT_EQ(spawns.load(), 1);

    JournalIndex idx;
    ASSERT_TRUE(loadJournal(path, &idx, &err)) << err;

    // The resumed sweep execs only the missing cell, and the
    // journaled one comes back byte-identical.
    opt.journal = nullptr;
    opt.resumeFrom = &idx;
    const CampaignReport second = runCampaign("sp", cells, opt);
    EXPECT_EQ(spawns.load(), 2);
    EXPECT_EQ(second.resumedCount(), 1u);
    EXPECT_TRUE(second.cells[0].fromJournal);
    EXPECT_FALSE(second.cells[1].fromJournal);
    EXPECT_EQ(second.cells[0].toJson().dump(),
              first.cells[0].toJson().dump());
    EXPECT_TRUE(second.allOk()) << second.summary();
    std::remove(path.c_str());
}
