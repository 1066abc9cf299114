#include "campaign/spec.hh"

#include <charconv>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

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

std::string
trim(const std::string &s)
{
    std::size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    std::size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> items;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const std::size_t comma = s.find(',', pos);
        const std::string item = trim(
            s.substr(pos, comma == std::string::npos ? std::string::npos
                                                     : comma - pos));
        if (!item.empty())
            items.push_back(item);
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return items;
}

/** The unsigned keys, each with its field and largest value.
 *  validateSpec bounds the machine knobs further, as runOne would. */
struct UintKey
{
    const char *key;
    unsigned CampaignSpec::*field;
    std::uint64_t max;
};

constexpr UintKey uintKeys[] = {
    {"cores", &CampaignSpec::cores, UINT_MAX},
    {"ag-max-lines", &CampaignSpec::agMaxLines, UINT_MAX},
    {"agb-slice-lines", &CampaignSpec::agbSliceLines, UINT_MAX},
    {"timeout-ms", &CampaignSpec::timeoutMs, 86'400'000},
    {"retries", &CampaignSpec::retries, 100},
};

const UintKey *
findUintKey(const std::string &key)
{
    for (const UintKey &k : uintKeys)
        if (key == k.key)
            return &k;
    return nullptr;
}

bool
parseBool(const std::string &s, bool *out)
{
    if (s == "true" || s == "1" || s == "yes") {
        *out = true;
        return true;
    }
    if (s == "false" || s == "0" || s == "no") {
        *out = false;
        return true;
    }
    return false;
}

} // namespace

bool
parseUint(const std::string &s, std::uint64_t max, std::uint64_t *out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
    return ec == std::errc() && ptr == end && *out <= max;
}

bool
parseFiniteDouble(const std::string &s, double *out)
{
    const char *end = s.data() + s.size();
    const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
    return ec == std::errc() && ptr == end && std::isfinite(*out);
}

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
    // The engine names and the shared knobs (cores, AG/AGB sizes),
    // checked as runOne will check them.
    for (const std::string &e : spec.engines) {
        RunRequest probe;
        probe.engine = e;
        probe.cores = spec.cores;
        probe.agMaxLines = spec.agMaxLines;
        probe.agbSliceLines = spec.agbSliceLines;
        SystemConfig cfg;
        std::string err;
        if (!resolveConfig(probe, &cfg, &err))
            return err;
    }
    for (const std::string &b : spec.benches)
        if (!findProfile(b))
            return "unknown benchmark: " + b;
    for (double s : spec.scales)
        if (!(s > 0.0 && std::isfinite(s)))
            return "scale must be positive and finite, got " +
                   formatDouble(s);
    for (double f : spec.crashFractions)
        if (!(f > 0.0 && f <= 1.0))
            return "crash fraction must be in (0, 1], got " +
                   formatDouble(f);
    return "";
}

bool
parseSpecText(const std::string &text, CampaignSpec *out,
              std::string *err)
{
    CampaignSpec spec;
    std::istringstream is(text);
    std::string line;
    unsigned lineNo = 0;

    auto failAt = [&](const std::string &msg) {
        if (err)
            *err = "spec line " + std::to_string(lineNo) + ": " + msg;
        return false;
    };

    while (std::getline(is, line)) {
        ++lineNo;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trim(line);
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return failAt("expected key = value");
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));
        if (value.empty())
            return failAt("empty value for \"" + key + "\"");

        if (key == "name") {
            spec.name = value;
        } else if (key == "engines") {
            spec.engines = value == "all" ? engineNames()
                                          : splitList(value);
        } else if (key == "benches") {
            spec.benches = value == "all" ? benchmarkNames()
                                          : splitList(value);
        } else if (key == "scales") {
            spec.scales.clear();
            for (const std::string &item : splitList(value)) {
                double d;
                if (!parseFiniteDouble(item, &d))
                    return failAt("bad scale \"" + item + "\"");
                spec.scales.push_back(d);
            }
        } else if (key == "seeds") {
            spec.seeds.clear();
            for (const std::string &item : splitList(value)) {
                std::uint64_t u;
                if (!parseUint(item, UINT64_MAX, &u))
                    return failAt("bad seed \"" + item + "\"");
                spec.seeds.push_back(u);
            }
        } else if (key == "crash-fractions") {
            spec.crashFractions.clear();
            if (value != "none") {
                for (const std::string &item : splitList(value)) {
                    double d;
                    if (!parseFiniteDouble(item, &d))
                        return failAt("bad crash fraction \"" + item +
                                      "\"");
                    spec.crashFractions.push_back(d);
                }
            }
        } else if (key == "check") {
            if (!parseBool(value, &spec.check))
                return failAt("bad boolean \"" + value + "\"");
        } else if (const UintKey *k = findUintKey(key)) {
            std::uint64_t u = 0;
            if (!parseUint(value, k->max, &u))
                return failAt("\"" + key +
                              "\" expects an integer between 0 and " +
                              std::to_string(k->max) + ", got \"" +
                              value + "\"");
            spec.*k->field = static_cast<unsigned>(u);
        } else {
            return failAt("unknown key \"" + key + "\"");
        }
    }
    *out = std::move(spec);
    return true;
}

bool
loadSpecFile(const std::string &path, CampaignSpec *out,
             std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open spec file: " + path;
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    return parseSpecText(buf.str(), out, err);
}

} // namespace tsoper::campaign
