/**
 * @file
 * Allocation budget of the simulation loop: heap allocations per
 * executed event, from the end of System construction to the end of
 * run(), must stay under a committed per-cell bound.  So must the
 * allocations store recording (SystemConfig::recordStores, on in every
 * checked run) adds per committed store: the same cell run with and
 * without it.  Also the bytes statsToJson allocates for one finished
 * run: reports hold that tree for every cell, so its size is what a
 * held result costs.
 *
 * The executable replaces the global operator new/delete with counting
 * versions, so it is built standalone and kept out of the sanitizer
 * label (ASan brings its own allocator; the test skips itself there).
 *
 * Bounds are the measured value plus 10%.  A change that adds a heap
 * allocation per message, transaction or waiter shows up here long
 * before it shows up in host time.  docs/perf.md lists the rules that
 * keep the event path allocation-free.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "campaign/run_request.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

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
std::atomic<std::uint64_t> allocations{0};
std::atomic<std::uint64_t> allocatedBytes{0};
} // namespace

#if !TSOPER_ASAN
namespace
{
// Out of line, so the optimizer never pairs an inlined free() with a
// new-expression (a false -Wmismatched-new-delete).
[[gnu::noinline]] void
releaseBlock(void *p) noexcept
{
    std::free(p);
}
} // namespace

void *
operator new(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    allocatedBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void operator delete(void *p) noexcept { releaseBlock(p); }
void operator delete[](void *p) noexcept { releaseBlock(p); }
void operator delete(void *p, std::size_t) noexcept { releaseBlock(p); }
void operator delete[](void *p, std::size_t) noexcept { releaseBlock(p); }
#endif

using namespace tsoper;

namespace
{

struct BudgetCell
{
    const char *engine;
    const char *bench;
    double maxPerEvent; ///< Measured allocations per event + 10%.
};

const BudgetCell kCells[] = {
    {"tsoper", "radix", 0.359},
    {"stw", "x264", 0.423},
    {"bsp-slc-agb", "lu_ncb", 1.012},
    {"hwrp", "radix", 0.194},
    {"baseline-mesi", "ocean_cp", 0.008},
};

void
PrintTo(const BudgetCell &c, std::ostream *os)
{
    *os << c.engine << "/" << c.bench;
}

/// Measured bytes statsToJson allocates for tsoper/radix + 10%.
constexpr std::uint64_t kStatsJsonMaxBytes = 110447;

/// Allocations recording may add per committed store.  The log keeps
/// flat per-core arrays, so what it adds is their growth, a few
/// hundredths of an allocation per store.
constexpr double kRecordingMaxPerStore = 0.1;

class AllocBudget : public ::testing::TestWithParam<BudgetCell>
{
};

/** Resolves @p engine on @p bench at scale 0.1, seed 1. */
void
resolveCell(const char *engine, const char *bench, SystemConfig *cfg,
            Workload *w)
{
    campaign::RunRequest req;
    req.engine = engine;
    req.bench = bench;
    req.scale = 0.1;
    req.seed = 1;
    std::string err;
    ASSERT_TRUE(campaign::resolveConfig(req, cfg, &err)) << err;
    *w = generateByName(req.bench, cfg->numCores, req.seed, req.scale);
}

/** What one System::run of a cell allocated and did. */
struct RunCount
{
    std::uint64_t allocs = 0;
    std::uint64_t events = 0;
    std::uint64_t stores = 0; ///< Stores the log recorded.
};

/** Runs @p cell with store recording on or off, counting from the end
 *  of System construction to the end of run(). */
void
countRun(const BudgetCell &cell, bool record, RunCount *out)
{
    SystemConfig cfg;
    Workload w;
    ASSERT_NO_FATAL_FAILURE(resolveCell(cell.engine, cell.bench, &cfg, &w));
    cfg.recordStores = record;
    System sys(cfg, w);

    const std::uint64_t before = allocations.load();
    const std::uint64_t eventsBefore = sys.eventQueue().executed();
    sys.run();
    out->allocs = allocations.load() - before;
    out->events = sys.eventQueue().executed() - eventsBefore;
    out->stores = sys.storeLog().totalStores();
}

} // namespace

TEST_P(AllocBudget, AllocationsPerEventWithinBound)
{
    if (TSOPER_ASAN)
        GTEST_SKIP() << "ASan replaces the allocator being counted";
    const BudgetCell &cell = GetParam();
    RunCount run;
    ASSERT_NO_FATAL_FAILURE(countRun(cell, false, &run));
    const std::uint64_t allocs = run.allocs;
    const std::uint64_t events = run.events;
    ASSERT_GT(events, 0u);

    const double perEvent =
        static_cast<double>(allocs) / static_cast<double>(events);
    std::printf("%s/%s: %llu allocations / %llu events = %.3f per event\n",
                cell.engine, cell.bench,
                static_cast<unsigned long long>(allocs),
                static_cast<unsigned long long>(events), perEvent);
    EXPECT_LE(perEvent, cell.maxPerEvent)
        << cell.engine << "/" << cell.bench;
}

TEST_P(AllocBudget, RecordingAllocationsPerStoreWithinBound)
{
    if (TSOPER_ASAN)
        GTEST_SKIP() << "ASan replaces the allocator being counted";
    const BudgetCell &cell = GetParam();
    RunCount plain;
    RunCount checked;
    ASSERT_NO_FATAL_FAILURE(countRun(cell, false, &plain));
    ASSERT_NO_FATAL_FAILURE(countRun(cell, true, &checked));
    ASSERT_EQ(plain.events, checked.events) << "recording moved timing";
    ASSERT_GT(checked.stores, 0u);

    const double perStore = (static_cast<double>(checked.allocs) -
                             static_cast<double>(plain.allocs)) /
                            static_cast<double>(checked.stores);
    std::printf("%s/%s: recording adds %.3f allocations per store "
                "(%llu stores)\n",
                cell.engine, cell.bench, perStore,
                static_cast<unsigned long long>(checked.stores));
    EXPECT_LE(perStore, kRecordingMaxPerStore)
        << cell.engine << "/" << cell.bench;
}

INSTANTIATE_TEST_SUITE_P(
    Cells, AllocBudget, ::testing::ValuesIn(kCells),
    [](const ::testing::TestParamInfo<BudgetCell> &info) {
        std::string name =
            std::string(info.param.engine) + "_" + info.param.bench;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(StatsJsonBudget, TsoperRadixBytesWithinBound)
{
    if (TSOPER_ASAN)
        GTEST_SKIP() << "ASan replaces the allocator being counted";
    SystemConfig cfg;
    Workload w;
    ASSERT_NO_FATAL_FAILURE(resolveCell("tsoper", "radix", &cfg, &w));
    System sys(cfg, w);
    sys.run();

    const std::uint64_t before = allocatedBytes.load();
    const Json doc = statsToJson(sys.stats());
    const std::uint64_t bytes = allocatedBytes.load() - before;
    std::printf("tsoper/radix: statsToJson allocated %llu bytes "
                "(%zu bytes of text)\n",
                static_cast<unsigned long long>(bytes), doc.dump().size());
    EXPECT_LE(bytes, kStatsJsonMaxBytes);
}
