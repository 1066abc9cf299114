/**
 * @file
 * Golden fixed-seed stats: every engine on two profiles, plus five
 * audited crash cells, must reproduce a committed table of stats
 * digests byte for byte.  ShapeRegression.StatsJsonByteIdenticalFor-
 * FixedSeed only compares two runs of the same binary; this table pins
 * behaviour across commits, so a refactor that claims "stats are
 * byte-identical" is checked rather than asserted.
 *
 * Each row holds a 64-bit FNV-1a digest of statsJsonText, the
 * sys.exec_cycles counter and — for cells that hold the System — the
 * number of events the queue executed.  Crash cells run through
 * campaign::runOne (timing run, crash run, recovery audit), so their
 * cycle column is the timing run's finish cycle and their event column
 * is 0.  Crash cells also pin the crash checker's verdict: a digest of
 * the run status, the recovery summary and the detail (the first
 * violation the checker names), so a change to how the checker reads
 * the store log cannot move a verdict unnoticed.  Two crash cells
 * cover the checker's failing path (bsp/dedup names a word-chain
 * violation) and HW-RP's relaxed SFR contract.
 *
 * Re-baselining on purpose: a mismatch prints the cell's new row in
 * the table's own syntax; paste it over the old one.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>

#include "campaign/run_request.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "workload/generators.hh"

using namespace tsoper;

namespace
{

struct GoldenRow
{
    const char *engine;
    const char *bench;
    double crashAt; ///< 0 = run to completion; else runOne crash cell.
    std::uint64_t digest;
    std::uint64_t execCycles;
    std::uint64_t events;
    std::uint64_t verdict = 0; ///< Crash cells: status, summary, detail.
};

constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 3;

// clang-format off
const GoldenRow kGolden[] = {
    {"baseline", "radix", 0, 0x07c90705679a677bull, 175669, 81960},
    {"baseline", "ocean_cp", 0, 0x8896551649a0d541ull, 22074, 21426},
    {"baseline-mesi", "radix", 0, 0x42cdc6e36d9de392ull, 178525, 81948},
    {"baseline-mesi", "ocean_cp", 0, 0xdbf2c9e0e5342b0aull, 22376, 21768},
    {"hwrp", "radix", 0, 0x84da1b365bad16aeull, 181394, 86583},
    {"hwrp", "ocean_cp", 0, 0xdec001448d9d158full, 22218, 22270},
    {"bsp", "radix", 0, 0x83d8f823d3561abcull, 192472, 108219},
    {"bsp", "ocean_cp", 0, 0xb0bed23a810d56baull, 25121, 23274},
    {"bsp-slc", "radix", 0, 0x3e0dd78d23f92f64ull, 191909, 108225},
    {"bsp-slc", "ocean_cp", 0, 0x49d5d051e2688014ull, 21949, 22922},
    {"bsp-slc-agb", "radix", 0, 0x1bc42a7c059de297ull, 196073, 100354},
    {"bsp-slc-agb", "ocean_cp", 0, 0xc7ab8fdc90affe6cull, 22230, 22799},
    {"stw", "radix", 0, 0xb55fbaea47239a55ull, 370249, 106231},
    {"stw", "ocean_cp", 0, 0xdf69791e5b45e5aaull, 63368, 23618},
    {"tsoper", "radix", 0, 0xbd622d4351bc1e62ull, 204440, 100434},
    {"tsoper", "ocean_cp", 0, 0xaaaed1f3a6c31b27ull, 22591, 22685},
    {"tsoper", "radix", 0.5, 0x25ac3f614d08971bull, 204440, 0, 0x4b5f2807217ba742ull},
    {"stw", "radix", 0.5, 0xcb6e42cfa0f911a8ull, 370249, 0, 0xefc5e5a4c5c6a4b3ull},
    {"bsp-slc-agb", "radix", 0.5, 0xf9dd52b82d8caecfull, 196073, 0, 0x07a8801bce275ba7ull},
    {"bsp", "dedup", 0.25, 0xc42a1d8d0b33463aull, 50582, 0, 0xed7186f8a39eb431ull},
    {"hwrp", "radix", 0.5, 0x5d6bc24deeed608dull, 181394, 0, 0xb9b442b5e31a7c1dull},
};
// clang-format on

std::uint64_t
fnv1a(const std::string &text)
{
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::string
rowText(const GoldenRow &r)
{
    char buf[192];
    std::snprintf(buf, sizeof buf,
                  "    {\"%s\", \"%s\", %g, 0x%016llxull, %llu, %llu",
                  r.engine, r.bench, r.crashAt,
                  static_cast<unsigned long long>(r.digest),
                  static_cast<unsigned long long>(r.execCycles),
                  static_cast<unsigned long long>(r.events));
    std::string text = buf;
    if (r.verdict) {
        std::snprintf(buf, sizeof buf, ", 0x%016llxull",
                      static_cast<unsigned long long>(r.verdict));
        text += buf;
    }
    return text + "},";
}

/** Run @p want's cell and return its measured row. */
GoldenRow
measure(const GoldenRow &want)
{
    GoldenRow got = want;
    campaign::RunRequest req;
    req.engine = want.engine;
    req.bench = want.bench;
    req.scale = kScale;
    req.seed = kSeed;
    if (want.crashAt > 0.0) {
        req.crashAt = want.crashAt;
        req.check = true;
        const campaign::RunResult res = campaign::runOne(req);
        EXPECT_TRUE(res.status == campaign::RunStatus::Ok ||
                    res.status == campaign::RunStatus::CheckFailed)
            << res.detail;
        got.digest = fnv1a(res.stats.dump(2));
        got.execCycles = res.cycles;
        got.events = 0;
        got.verdict = fnv1a(std::string(campaign::toString(res.status)) +
                            "\n" + res.recoverySummary + "\n" +
                            res.detail);
        return got;
    }
    SystemConfig cfg;
    std::string err;
    EXPECT_TRUE(campaign::resolveConfig(req, &cfg, &err)) << err;
    const Workload w =
        generateByName(want.bench, cfg.numCores, kSeed, kScale);
    System sys(cfg, w);
    sys.run();
    got.digest = fnv1a(statsJsonText(sys.stats()));
    got.execCycles = sys.stats().get("sys.exec_cycles");
    got.events = sys.eventQueue().executed();
    return got;
}

void
PrintTo(const GoldenRow &r, std::ostream *os)
{
    *os << r.engine << "/" << r.bench;
    if (r.crashAt > 0.0)
        *os << "/crash@" << r.crashAt;
}

class GoldenStats : public ::testing::TestWithParam<GoldenRow>
{
};

} // namespace

TEST_P(GoldenStats, MatchesCommittedTable)
{
    const GoldenRow &want = GetParam();
    const GoldenRow got = measure(want);
    const bool same = got.digest == want.digest &&
                      got.execCycles == want.execCycles &&
                      got.events == want.events &&
                      got.verdict == want.verdict;
    EXPECT_TRUE(same) << "stats moved; if on purpose, re-baseline with\n"
                      << rowText(got) << "\nwas\n" << rowText(want);
}

INSTANTIATE_TEST_SUITE_P(
    Cells, GoldenStats, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<GoldenRow> &info) {
        std::string name = std::string(info.param.engine) + "_" +
                           info.param.bench +
                           (info.param.crashAt > 0.0 ? "_crash" : "");
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });
