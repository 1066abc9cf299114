/**
 * @file
 * Statistics collection: named counters, histograms, and time-series
 * samplers, kept in a per-System registry and dumped as text tables.
 *
 * The benches that regenerate the paper's figures read their series
 * from this registry; tests assert on individual counters.
 */

#ifndef TSOPER_SIM_STATS_HH
#define TSOPER_SIM_STATS_HH

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hh"

namespace tsoper
{

/** A monotonically growing event count. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1) { value_ += n; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * A histogram over unsigned sample values with exact per-value
 * buckets (suitable for AG sizes, list lengths, SFR sizes).
 *
 * The sampled quantities are almost always tiny — AG sizes and
 * sharing-list lengths rarely exceed a few dozen — so values below
 * flatSize live in a flat vector indexed by value (one add is a
 * bounds check and an increment, no tree walk).  Rare large values
 * spill into an ordered map.
 */
class Histogram
{
  public:
    /** First value that spills out of the flat fast path. */
    static constexpr std::uint64_t flatSize = 256;

    void
    add(std::uint64_t value, std::uint64_t count = 1)
    {
        if (value < flatSize) {
            if (flat_.size() <= value)
                flat_.resize(static_cast<std::size_t>(flatSize), 0);
            flat_[static_cast<std::size_t>(value)] += count;
        } else {
            spill_[value] += count;
        }
        if (samples_ == 0 || value < min_)
            min_ = value;
        if (value > max_)
            max_ = value;
        samples_ += count;
        total_ += value * count;
    }

    std::uint64_t samples() const { return samples_; }
    std::uint64_t total() const { return total_; }
    std::uint64_t min() const { return samples_ ? min_ : 0; }
    std::uint64_t max() const { return max_; }
    double mean() const;

    /** Fraction of samples with value <= @p v (cumulative). */
    double cumulativeAt(std::uint64_t v) const;

    /** Smallest value v such that cumulativeAt(v) >= @p q. */
    std::uint64_t percentile(double q) const;

    /**
     * Exact non-zero bucket counts in ascending value order, for
     * dumping cumulative curves.  Materialized on call: this is a
     * dump-time interface, not a hot path.
     */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> buckets() const;

    void reset();

  private:
    std::vector<std::uint64_t> flat_; ///< counts for values < flatSize
    std::map<std::uint64_t, std::uint64_t> spill_; ///< values >= flatSize
    std::uint64_t samples_ = 0;
    std::uint64_t total_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

/**
 * Records (cycle, value) samples; used for the Fig. 15 timelines of
 * SFR/AG sizes over execution.
 */
class TimeSeries
{
  public:
    void sample(Cycle when, double value)
    {
        points_.emplace_back(when, value);
    }

    const std::vector<std::pair<Cycle, double>> &points() const
    {
        return points_;
    }

    void reset() { points_.clear(); }

  private:
    std::vector<std::pair<Cycle, double>> points_;
};

/**
 * Accumulates a time-weighted average of a piecewise-constant value,
 * e.g. "average sharing-list length over the run".
 */
class WeightedAverage
{
  public:
    /** Record that the tracked value was @p value from the last update
     *  until @p now. */
    void
    update(Cycle now, double value)
    {
        if (now > last_) {
            weighted_ += value * static_cast<double>(now - last_);
            span_ += static_cast<double>(now - last_);
        }
        last_ = now;
    }

    double
    average() const
    {
        return span_ > 0 ? weighted_ / span_ : 0.0;
    }

  private:
    Cycle last_ = 0;
    double weighted_ = 0.0;
    double span_ = 0.0;
};

/** Name-indexed store of all statistics for one simulated system. */
class StatsRegistry
{
  public:
    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name);
    TimeSeries &timeSeries(const std::string &name);

    /** Value of a counter, 0 if it was never touched. */
    std::uint64_t get(const std::string &name) const;

    /** Dump all counters and histogram summaries as a text table. */
    void dump(std::ostream &os) const;

    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }
    const std::map<std::string, TimeSeries> &series() const
    {
        return series_;
    }

  private:
    std::map<std::string, Counter> counters_;
    std::map<std::string, Histogram> histograms_;
    std::map<std::string, TimeSeries> series_;
};

} // namespace tsoper

#endif // TSOPER_SIM_STATS_HH
