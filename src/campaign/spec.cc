#include "campaign/spec.hh"

#include <cstdio>

#include "workload/generators.hh"

namespace tsoper::campaign
{

namespace
{

/** Shortest %g form — used for stable cell ids ("x0.1", "c0.25"). */
std::string
formatDouble(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", v);
    return buf;
}

} // namespace

std::size_t
CampaignSpec::cellCount() const
{
    const std::size_t crashPoints =
        crashFractions.empty() ? 1 : crashFractions.size();
    return engines.size() * benches.size() * scales.size() *
           seeds.size() * crashPoints;
}

std::vector<RunRequest>
expand(const CampaignSpec &spec)
{
    std::vector<RunRequest> cells;
    cells.reserve(spec.cellCount());
    for (const std::string &engine : spec.engines) {
        for (const std::string &bench : spec.benches) {
            for (double scale : spec.scales) {
                for (std::uint64_t seed : spec.seeds) {
                    RunRequest base;
                    base.engine = engine;
                    base.bench = bench;
                    base.scale = scale;
                    base.seed = seed;
                    base.cores = spec.cores;
                    base.agMaxLines = spec.agMaxLines;
                    base.agbSliceLines = spec.agbSliceLines;
                    base.check = spec.check;
                    base.id = engine + "/" + bench + "/x" +
                              formatDouble(scale) + "/s" +
                              std::to_string(seed);
                    if (spec.crashFractions.empty()) {
                        cells.push_back(base);
                        continue;
                    }
                    for (double frac : spec.crashFractions) {
                        RunRequest cell = base;
                        cell.crashAt = frac;
                        cell.id += "/c" + formatDouble(frac);
                        cells.push_back(std::move(cell));
                    }
                }
            }
        }
    }
    return cells;
}

std::string
validateSpec(const CampaignSpec &spec)
{
    if (spec.engines.empty())
        return "no engines listed";
    if (spec.benches.empty())
        return "no benchmarks listed";
    if (spec.scales.empty())
        return "no scales listed";
    if (spec.seeds.empty())
        return "no seeds listed";
    // The engine names, the scales and the shared knobs (cores, AG/AGB
    // sizes), checked as runOne will check them.
    RunRequest probe;
    probe.cores = spec.cores;
    probe.agMaxLines = spec.agMaxLines;
    probe.agbSliceLines = spec.agbSliceLines;
    SystemConfig cfg;
    std::string err;
    for (const std::string &e : spec.engines) {
        probe.engine = e;
        if (!resolveConfig(probe, &cfg, &err))
            return err;
    }
    for (const std::string &b : spec.benches)
        if (!findProfile(b))
            return "unknown benchmark: " + b;
    for (double s : spec.scales) {
        probe.scale = s;
        if (!resolveConfig(probe, &cfg, &err))
            return err;
    }
    for (double f : spec.crashFractions)
        if (!(f > 0.0 && f <= 1.0))
            return "crash fraction must be in (0, 1], got " +
                   formatDouble(f);
    return "";
}

} // namespace tsoper::campaign
