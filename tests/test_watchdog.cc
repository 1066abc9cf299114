/** @file Tests for the progress watchdog: livelock detection at the
 *  event-kernel level, the guarded System run, and the Hung verdict
 *  surfacing through runOne. */

#include <gtest/gtest.h>

#include <string>

#include "campaign/run_request.hh"
#include "core/system.hh"
#include "sim/event_queue.hh"
#include "sim/watchdog.hh"

using namespace tsoper;

namespace
{

WatchdogConfig
tinyConfig()
{
    WatchdogConfig cfg;
    cfg.checkEveryEvents = 50;
    cfg.stallChecks = 3;
    cfg.frozenChecks = 2;
    return cfg;
}

} // namespace

// --- ProgressWatchdog -------------------------------------------------

TEST(ProgressWatchdog, FrozenTimeTripsAfterConfiguredChunks)
{
    ProgressWatchdog dog(tinyConfig());
    EXPECT_EQ(dog.check(0, 5), "");  // priming sample
    EXPECT_EQ(dog.check(1, 5), "");  // frozen x1 (progress moves)
    const std::string reason = dog.check(2, 5); // frozen x2
    EXPECT_NE(reason.find("frozen"), std::string::npos) << reason;
    EXPECT_NE(reason.find("cycle 5"), std::string::npos) << reason;
}

TEST(ProgressWatchdog, StalledSignatureTripsAndAdvanceResets)
{
    ProgressWatchdog dog(tinyConfig());
    EXPECT_EQ(dog.check(7, 10), "");
    EXPECT_EQ(dog.check(7, 20), ""); // stalled x1
    EXPECT_EQ(dog.check(7, 30), ""); // stalled x2
    const std::string reason = dog.check(7, 40); // stalled x3
    EXPECT_NE(reason.find("no forward progress"), std::string::npos)
        << reason;

    dog.reset();
    EXPECT_EQ(dog.check(7, 50), "");
    EXPECT_EQ(dog.check(7, 60), "");
    EXPECT_EQ(dog.check(8, 70), ""); // progress moved: counter resets
    EXPECT_EQ(dog.check(8, 80), "");
    EXPECT_EQ(dog.check(8, 90), "");
    EXPECT_NE(dog.check(8, 100), "");
}

// --- EventQueue::runFor -----------------------------------------------

TEST(EventQueue, RunForStopsAtEventBudget)
{
    EventQueue eq;
    // Self-perpetuating activity: each event schedules the next.
    std::function<void()> tick = [&] { eq.scheduleIn(1, [&] { tick(); }); };
    eq.scheduleIn(1, [&] { tick(); });

    eq.runFor([] { return false; }, maxCycle, 10);
    EXPECT_EQ(eq.executed(), 10u);
    EXPECT_FALSE(eq.empty());

    // The predicate still takes precedence over the budget.
    eq.runFor([&] { return eq.executed() >= 15; }, maxCycle, 1000);
    EXPECT_EQ(eq.executed(), 15u);
}

// --- runGuarded -------------------------------------------------------

TEST(RunGuarded, ZeroDelayLivelockThrowsFrozenTime)
{
    EventQueue eq;
    // Two FSMs NACKing each other in the same cycle, forever.
    std::function<void()> spin = [&] { eq.scheduleIn(0, [&] { spin(); }); };
    eq.scheduleIn(1, [&] { spin(); });

    try {
        runGuarded(eq, [] { return false; }, maxCycle, tinyConfig(),
                   [] { return std::uint64_t{0}; },
                   [] { return std::string("dump-of-state"); }, "test");
        FAIL() << "expected HungError";
    } catch (const HungError &e) {
        const std::string what = e.what();
        EXPECT_NE(what.find("hung during test"), std::string::npos);
        EXPECT_NE(what.find("frozen"), std::string::npos) << what;
        EXPECT_NE(what.find("dump-of-state"), std::string::npos);
    }
}

TEST(RunGuarded, FlatSignatureThrowsStall)
{
    EventQueue eq;
    std::function<void()> tick = [&] { eq.scheduleIn(1, [&] { tick(); }); };
    eq.scheduleIn(1, [&] { tick(); });

    // Time advances, events run, but the signature never moves.
    EXPECT_THROW(runGuarded(eq, [] { return false; }, maxCycle,
                            tinyConfig(),
                            [] { return std::uint64_t{42}; }, nullptr,
                            "test"),
                 HungError);
}

TEST(RunGuarded, DrainedQueueWithPredFalseIsDeadlock)
{
    EventQueue eq;
    eq.scheduleIn(1, [] {});
    try {
        runGuarded(eq, [] { return false; }, maxCycle, tinyConfig(),
                   nullptr, nullptr, "drain");
        FAIL() << "expected HungError";
    } catch (const HungError &e) {
        EXPECT_NE(std::string(e.what()).find("deadlock"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RunGuarded, CycleBudgetBlownThrows)
{
    EventQueue eq;
    std::function<void()> tick = [&] {
        eq.scheduleIn(1000, [&] { tick(); });
    };
    eq.scheduleIn(1, [&] { tick(); });

    try {
        runGuarded(eq, [] { return false; }, /*maxCycles=*/5000,
                   tinyConfig(), nullptr, nullptr, "test");
        FAIL() << "expected HungError";
    } catch (const HungError &e) {
        EXPECT_NE(std::string(e.what()).find("budget"),
                  std::string::npos)
            << e.what();
    }
}

TEST(RunGuarded, ReturnsNormallyWhenPredBecomesTrue)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> tick = [&] {
        if (++count < 500)
            eq.scheduleIn(1, [&] { tick(); });
    };
    eq.scheduleIn(1, [&] { tick(); });

    EXPECT_NO_THROW(runGuarded(eq, [&] { return count >= 200; },
                               maxCycle, tinyConfig(),
                               [&] { return std::uint64_t(count); },
                               nullptr, "test"));
    EXPECT_GE(count, 200);
}

// --- System + runOne integration --------------------------------------

TEST(WatchdogSystem, BudgetBlownRunSurfacesAsHungWithStateDump)
{
    using namespace tsoper::campaign;

    RunRequest r;
    r.id = "hung-budget";
    r.bench = "dedup";
    r.scale = 0.05;
    r.maxCycles = 50; // no workload finishes this fast

    const RunResult res = runOne(r);
    EXPECT_EQ(res.status, RunStatus::Hung) << res.detail;
    EXPECT_NE(res.detail.find("budget"), std::string::npos)
        << res.detail;
    // The state dump rides along in the detail for post-mortems.
    EXPECT_NE(res.detail.find("machine state:"), std::string::npos)
        << res.detail;
    EXPECT_NE(res.detail.find("core 0:"), std::string::npos);
}

TEST(WatchdogSystem, HealthyRunIsUnaffected)
{
    using namespace tsoper::campaign;

    // radix at x11 executes about 4.4 M events, past two 2 M-event
    // chunk boundaries, so the watchdog primes on the first and
    // compares at the second: a legal run must not trip it.
    RunRequest r;
    r.id = "healthy";
    r.bench = "radix";
    r.scale = 11;

    std::uint64_t events = 0;
    RunHooks hooks;
    hooks.onFinished = [&](System &sys) {
        events = sys.eventQueue().executed();
    };
    const RunResult res = runOne(r, hooks);
    EXPECT_EQ(res.status, RunStatus::Ok) << res.detail;
    EXPECT_GT(res.cycles, 0u);
    EXPECT_GT(events, 2 * WatchdogConfig{}.checkEveryEvents) << events;
}
