#include "sim/stats.hh"

#include <algorithm>
#include <ostream>

namespace tsoper
{

double
Histogram::mean() const
{
    return samples_ ? static_cast<double>(total_) /
                          static_cast<double>(samples_)
                    : 0.0;
}

double
Histogram::cumulativeAt(std::uint64_t v) const
{
    if (samples_ == 0)
        return 0.0;
    std::uint64_t below = 0;
    const std::uint64_t flatEnd =
        std::min<std::uint64_t>(v + 1, flat_.size());
    for (std::uint64_t value = 0; value < flatEnd; ++value)
        below += flat_[static_cast<std::size_t>(value)];
    for (const auto &[value, count] : spill_) {
        if (value > v)
            break;
        below += count;
    }
    return static_cast<double>(below) / static_cast<double>(samples_);
}

std::uint64_t
Histogram::percentile(double q) const
{
    if (samples_ == 0)
        return 0;
    const auto target = static_cast<std::uint64_t>(
        q * static_cast<double>(samples_) + 0.5);
    std::uint64_t seen = 0;
    for (std::uint64_t value = 0; value < flat_.size(); ++value) {
        seen += flat_[static_cast<std::size_t>(value)];
        if (flat_[static_cast<std::size_t>(value)] && seen >= target)
            return value;
    }
    for (const auto &[value, count] : spill_) {
        seen += count;
        if (seen >= target)
            return value;
    }
    return max_;
}

std::vector<std::pair<std::uint64_t, std::uint64_t>>
Histogram::buckets() const
{
    std::vector<std::pair<std::uint64_t, std::uint64_t>> out;
    out.reserve(spill_.size() + 16);
    for (std::uint64_t value = 0; value < flat_.size(); ++value) {
        if (flat_[static_cast<std::size_t>(value)])
            out.emplace_back(value, flat_[static_cast<std::size_t>(value)]);
    }
    // Spill values are all >= flatSize, so appending keeps the list
    // sorted.
    out.insert(out.end(), spill_.begin(), spill_.end());
    return out;
}

void
Histogram::reset()
{
    flat_.clear();
    spill_.clear();
    samples_ = total_ = min_ = max_ = 0;
}

Counter &
StatsRegistry::counter(const std::string &name)
{
    return counters_[name];
}

Histogram &
StatsRegistry::histogram(const std::string &name)
{
    return histograms_[name];
}

TimeSeries &
StatsRegistry::timeSeries(const std::string &name)
{
    return series_[name];
}

std::uint64_t
StatsRegistry::get(const std::string &name) const
{
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second.value();
}

void
StatsRegistry::dump(std::ostream &os) const
{
    for (const auto &[name, c] : counters_)
        os << name << " " << c.value() << "\n";
    for (const auto &[name, h] : histograms_) {
        os << name << ".samples " << h.samples() << "\n";
        os << name << ".mean " << h.mean() << "\n";
        os << name << ".max " << h.max() << "\n";
    }
}

} // namespace tsoper
