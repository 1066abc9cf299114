/** @file Unit tests for counters, histograms and the stats registry. */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/stats.hh"

using namespace tsoper;

TEST(Counter, AccumulatesAndResets)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Histogram, BasicMoments)
{
    Histogram h;
    for (std::uint64_t v : {1, 2, 2, 3, 3, 3})
        h.add(v);
    EXPECT_EQ(h.samples(), 6u);
    EXPECT_EQ(h.min(), 1u);
    EXPECT_EQ(h.max(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 14.0 / 6.0);
}

TEST(Histogram, CumulativeDistribution)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(10), 0.10);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(100), 1.0);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(0), 0.0);
}

TEST(Histogram, Percentiles)
{
    Histogram h;
    for (std::uint64_t v = 1; v <= 100; ++v)
        h.add(v);
    EXPECT_EQ(h.percentile(0.5), 50u);
    EXPECT_EQ(h.percentile(0.9), 90u);
    EXPECT_EQ(h.percentile(1.0), 100u);
}

TEST(Histogram, WeightedAdd)
{
    Histogram h;
    h.add(4, 10);
    EXPECT_EQ(h.samples(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Histogram, EmptyIsSafe)
{
    Histogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.percentile(0.5), 0u);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(5), 0.0);
}

TEST(StatsRegistry, CountersByName)
{
    StatsRegistry reg;
    reg.counter("a").inc(5);
    reg.counter("a").inc(2);
    EXPECT_EQ(reg.get("a"), 7u);
    EXPECT_EQ(reg.get("missing"), 0u);
}

TEST(StatsRegistry, DumpContainsEntries)
{
    StatsRegistry reg;
    reg.counter("x.count").inc(3);
    reg.histogram("y.hist").add(7);
    std::ostringstream os;
    reg.dump(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("x.count 3"), std::string::npos);
    EXPECT_NE(out.find("y.hist.samples 1"), std::string::npos);
}

TEST(StatsRegistry, IterationApiSeesEveryInstrument)
{
    StatsRegistry reg;
    reg.counter("c.one").inc(1);
    reg.counter("c.two").inc(2);
    reg.histogram("h.one").add(4, 3);
    reg.timeSeries("s.one").sample(10, 0.5);
    reg.timeSeries("s.two").sample(20, 1.5);

    ASSERT_EQ(reg.counters().size(), 2u);
    EXPECT_EQ(reg.counters().at("c.two").value(), 2u);

    ASSERT_EQ(reg.histograms().size(), 1u);
    EXPECT_EQ(reg.histograms().at("h.one").samples(), 3u);

    ASSERT_EQ(reg.series().size(), 2u);
    EXPECT_EQ(reg.series().at("s.one").points().size(), 1u);
    EXPECT_DOUBLE_EQ(reg.series().at("s.two").points()[0].second, 1.5);

    // std::map iteration is name-ordered, so exporters that walk these
    // views produce stable output.
    std::string last;
    for (const auto &[name, counter] : reg.counters()) {
        (void)counter;
        EXPECT_LT(last, name);
        last = name;
    }
}

TEST(Histogram, PercentileWithWeightedBuckets)
{
    Histogram h;
    h.add(1, 89);
    h.add(10, 10);
    h.add(1000, 1);
    EXPECT_EQ(h.percentile(0.5), 1u);
    EXPECT_EQ(h.percentile(0.9), 10u);
    EXPECT_EQ(h.percentile(0.99), 10u);
    EXPECT_EQ(h.percentile(1.0), 1000u);
    // p <= 0 clamps to the smallest recorded value.
    EXPECT_EQ(h.percentile(0.0), 1u);
}

TEST(TimeSeries, RecordsPoints)
{
    TimeSeries ts;
    ts.sample(5, 1.5);
    ts.sample(9, 2.5);
    ASSERT_EQ(ts.points().size(), 2u);
    EXPECT_EQ(ts.points()[0].first, 5u);
    EXPECT_DOUBLE_EQ(ts.points()[1].second, 2.5);
}

// --------------------------------------------------------------------
// Flat fast path vs map spillover (Histogram::flatSize boundary).
// --------------------------------------------------------------------

TEST(Histogram, SpilloverKeepsMomentsAcrossBoundary)
{
    Histogram h;
    h.add(Histogram::flatSize - 1, 3); // last flat value
    h.add(Histogram::flatSize, 2);     // first spilled value
    h.add(10'000);                     // deep spill
    h.add(0, 4);
    EXPECT_EQ(h.samples(), 10u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 10'000u);
    EXPECT_EQ(h.total(), 3 * (Histogram::flatSize - 1) +
                             2 * Histogram::flatSize + 10'000);
}

TEST(Histogram, BucketsMergeFlatAndSpillSorted)
{
    Histogram h;
    h.add(2'000);
    h.add(7);
    h.add(Histogram::flatSize + 1);
    h.add(7);
    h.add(300);
    const auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 4u);
    EXPECT_EQ(buckets[0], (std::pair<std::uint64_t, std::uint64_t>{7, 2}));
    EXPECT_EQ(buckets[1].first, Histogram::flatSize + 1);
    EXPECT_EQ(buckets[2].first, 300u);
    EXPECT_EQ(buckets[3].first, 2'000u);
    for (std::size_t i = 1; i < buckets.size(); ++i)
        EXPECT_LT(buckets[i - 1].first, buckets[i].first);
}

TEST(Histogram, CumulativeAndPercentileAcrossSpill)
{
    Histogram h;
    for (std::uint64_t v = 0; v < 2 * Histogram::flatSize; ++v)
        h.add(v);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(Histogram::flatSize - 1), 0.5);
    EXPECT_DOUBLE_EQ(h.cumulativeAt(2 * Histogram::flatSize), 1.0);
    EXPECT_EQ(h.percentile(0.25), Histogram::flatSize / 2 - 1);
    EXPECT_EQ(h.percentile(1.0), 2 * Histogram::flatSize - 1);
}

TEST(Histogram, ResetClearsBothTiers)
{
    Histogram h;
    h.add(3);
    h.add(4 * Histogram::flatSize);
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_TRUE(h.buckets().empty());
    h.add(5);
    EXPECT_EQ(h.buckets().size(), 1u);
}

TEST(Histogram, ExactBoundaryValueSpillsOnce)
{
    // flatSize-1 is the last flat slot; flatSize itself must land in
    // the spill map, and repeated adds must merge into one bucket
    // rather than duplicating it on the flat/map seam.
    Histogram h;
    h.add(Histogram::flatSize - 1, 2);
    h.add(Histogram::flatSize, 3);
    h.add(Histogram::flatSize, 1);
    const auto buckets = h.buckets();
    ASSERT_EQ(buckets.size(), 2u);
    EXPECT_EQ(buckets[0],
              (std::pair<std::uint64_t, std::uint64_t>{
                  Histogram::flatSize - 1, 2}));
    EXPECT_EQ(buckets[1],
              (std::pair<std::uint64_t, std::uint64_t>{
                  Histogram::flatSize, 4}));
    EXPECT_EQ(h.percentile(1.0), Histogram::flatSize);
}

// --------------------------------------------------------------------
// TimeSeries under event-driven sampling: completion callbacks can
// fire with non-monotonic cycles.
// --------------------------------------------------------------------

TEST(TimeSeries, PreservesOutOfOrderArrival)
{
    // The series records arrival order verbatim — it neither sorts nor
    // drops samples whose cycle runs backwards (consumers that need
    // cycle order sort on use, e.g. the Perfetto exporter's viewer).
    TimeSeries ts;
    ts.sample(100, 1.0);
    ts.sample(40, 2.0);
    ts.sample(100, 3.0); // duplicate cycle is legal
    ts.sample(7, 4.0);
    ASSERT_EQ(ts.points().size(), 4u);
    EXPECT_EQ(ts.points()[0].first, 100u);
    EXPECT_EQ(ts.points()[1].first, 40u);
    EXPECT_EQ(ts.points()[2].first, 100u);
    EXPECT_DOUBLE_EQ(ts.points()[2].second, 3.0);
    EXPECT_EQ(ts.points()[3].first, 7u);
}

TEST(TimeSeries, ResetDropsOutOfOrderHistory)
{
    TimeSeries ts;
    ts.sample(50, 1.0);
    ts.sample(10, 2.0);
    ts.reset();
    EXPECT_TRUE(ts.points().empty());
    ts.sample(3, 9.0);
    ASSERT_EQ(ts.points().size(), 1u);
    EXPECT_EQ(ts.points()[0].first, 3u);
    EXPECT_DOUBLE_EQ(ts.points()[0].second, 9.0);
}
