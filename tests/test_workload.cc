/** @file Unit tests for the workload generators and profiles. */

#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "workload/generators.hh"
#include "workload/trace.hh"

using namespace tsoper;

TEST(Profiles, AllTwentyOneBenchmarksPresent)
{
    const auto names = benchmarkNames();
    EXPECT_EQ(names.size(), 21u);
    std::set<std::string> unique(names.begin(), names.end());
    EXPECT_EQ(unique.size(), 21u);
    for (const char *expected :
         {"barnes", "cholesky", "fft", "lu_ncb", "ocean_cp", "radiosity",
          "radix", "raytrace", "volrend", "water", "blackscholes",
          "bodytrack", "canneal", "dedup", "ferret", "fluidanimate",
          "freqmine", "streamcluster", "swaptions", "vips", "x264"}) {
        EXPECT_TRUE(unique.count(expected)) << expected;
    }
}

TEST(Profiles, UnknownNameIsFatal)
{
    EXPECT_THROW(profileByName("quake3"), std::runtime_error);
}

class GeneratorTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GeneratorTest, ProducesWellFormedWorkload)
{
    const Workload w = generateByName(GetParam(), 8, 1, 0.2);
    EXPECT_EQ(w.perCore.size(), 8u);
    for (const Trace &t : w.perCore)
        EXPECT_GT(t.size(), 50u);
    std::string error;
    EXPECT_TRUE(validateWorkload(w, &error)) << error;
}

TEST_P(GeneratorTest, DeterministicForSameSeed)
{
    const Workload a = generateByName(GetParam(), 4, 7, 0.1);
    const Workload b = generateByName(GetParam(), 4, 7, 0.1);
    ASSERT_EQ(a.perCore.size(), b.perCore.size());
    for (std::size_t c = 0; c < a.perCore.size(); ++c) {
        ASSERT_EQ(a.perCore[c].size(), b.perCore[c].size());
        for (std::size_t i = 0; i < a.perCore[c].size(); ++i) {
            EXPECT_EQ(a.perCore[c][i].type, b.perCore[c][i].type);
            EXPECT_EQ(a.perCore[c][i].addr, b.perCore[c][i].addr);
        }
    }
}

TEST_P(GeneratorTest, DifferentSeedsDiffer)
{
    const Workload a = generateByName(GetParam(), 4, 1, 0.1);
    const Workload b = generateByName(GetParam(), 4, 2, 0.1);
    bool differs = false;
    for (std::size_t c = 0; c < a.perCore.size() && !differs; ++c) {
        if (a.perCore[c].size() != b.perCore[c].size()) {
            differs = true;
            break;
        }
        for (std::size_t i = 0; i < a.perCore[c].size(); ++i) {
            if (a.perCore[c][i].addr != b.perCore[c][i].addr) {
                differs = true;
                break;
            }
        }
    }
    EXPECT_TRUE(differs);
}

TEST_P(GeneratorTest, AddressesStayInDesignatedRegions)
{
    const Workload w = generateByName(GetParam(), 8, 3, 0.1);
    for (std::size_t c = 0; c < w.perCore.size(); ++c) {
        for (const TraceOp &op : w.perCore[c]) {
            if (op.type != OpType::Load && op.type != OpType::Store)
                continue;
            const bool inPrivate =
                op.addr >= layout::privateAddr(static_cast<CoreId>(c), 0) &&
                op.addr < layout::privateAddr(static_cast<CoreId>(c) + 1, 0);
            const bool inShared = op.addr >= layout::sharedBase &&
                                  op.addr < layout::lockBase;
            ASSERT_TRUE(inPrivate || inShared)
                << "core " << c << " touches foreign address " << std::hex
                << op.addr;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GeneratorTest,
                         ::testing::ValuesIn(benchmarkNames()),
                         [](const auto &info) { return info.param; });

TEST(WorkloadValidation, CatchesUnbalancedLocks)
{
    Workload w;
    w.perCore.resize(1);
    w.perCore[0].push_back({OpType::LockAcq, layout::lockAddr(0), 0});
    std::string error;
    EXPECT_FALSE(validateWorkload(w, &error));
    EXPECT_NE(error.find("lock"), std::string::npos);
}

TEST(WorkloadValidation, CatchesBarrierMismatch)
{
    Workload w;
    w.perCore.resize(2);
    w.perCore[0].push_back({OpType::Barrier, layout::barrierAddr(0), 0});
    // Core 1 never arrives.
    std::string error;
    EXPECT_FALSE(validateWorkload(w, &error));
}

TEST(WorkloadStats, TotalsAreConsistent)
{
    const Workload w = generateByName("radix", 8, 1, 0.2);
    EXPECT_GT(w.totalStores(), 0u);
    EXPECT_GT(w.totalOps(), w.totalStores());
}

TEST(WorkloadScale, ScaleGrowsTraces)
{
    const Workload small = generateByName("fft", 4, 1, 0.1);
    const Workload large = generateByName("fft", 4, 1, 0.5);
    EXPECT_GT(large.totalOps(), small.totalOps());
}

TEST(Workload, ScaleOutsideRangeIsFatal)
{
    // generate() checks the scale itself: a direct call with a scale
    // resolveConfig would refuse is fatal, not an op count cast from a
    // negative, huge or NaN product.
    for (double scale : {-1.0, 0.0, 1e9,
                         std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::infinity()}) {
        EXPECT_FALSE(validScale(scale)) << scale;
        EXPECT_THROW(generateByName("fft", 4, 1, scale), std::runtime_error)
            << scale;
    }
    EXPECT_TRUE(validScale(maxScale));
}
