#include "campaign/builtin.hh"

#include "workload/generators.hh"

namespace tsoper::campaign
{

const std::vector<BuiltinCampaign> &
builtinCampaigns()
{
    static const std::vector<BuiltinCampaign> campaigns = [] {
        std::vector<BuiltinCampaign> v;

        {
            // 2 engines x 2 light profiles at a tiny scale with the
            // audit on: the CI smoke grid (ctest `campaign_smoke`).
            BuiltinCampaign c;
            c.name = "mini";
            c.description =
                "2x2 smoke grid (tsoper/stw x dedup/blackscholes, "
                "scale 0.05, audited)";
            c.spec.name = "mini";
            c.spec.engines = {"tsoper", "stw"};
            c.spec.benches = {"dedup", "blackscholes"};
            c.spec.scales = {0.05};
            c.spec.seeds = {1};
            c.spec.check = true;
            c.spec.timeoutMs = 60000;
            v.push_back(std::move(c));
        }
        {
            // The Fig. 11 grid: every execution-time system (plus the
            // SLC baseline the figure normalizes to) over all 21
            // benchmarks, at the scale and seed of EXPERIMENTS.md.
            // The report stores raw cycles; bench/experiments
            // normalizes them, and copies this spec for every other
            // sweep in the doc.
            BuiltinCampaign c;
            c.name = "fig11";
            c.description =
                "Fig. 11 sweep: baseline/hwrp/bsp/stw/tsoper x all "
                "21 benchmarks (raw cycles)";
            c.spec.name = "fig11";
            c.spec.engines = {"baseline", "hwrp", "bsp", "stw",
                              "tsoper"};
            c.spec.benches = benchmarkNames();
            c.spec.scales = {0.5};
            c.spec.seeds = {1};
            v.push_back(std::move(c));
        }
        {
            // Fig. 12 stepping stones (normalized to TSOPER by
            // bench/experiments).
            BuiltinCampaign c;
            c.name = "fig12";
            c.description =
                "Fig. 12 sweep: bsp/bsp-slc/bsp-slc-agb/tsoper x all "
                "21 benchmarks";
            c.spec.name = "fig12";
            c.spec.engines = {"bsp", "bsp-slc", "bsp-slc-agb",
                              "tsoper"};
            c.spec.benches = benchmarkNames();
            c.spec.scales = {0.5};
            c.spec.seeds = {1};
            v.push_back(std::move(c));
        }
        {
            // Fig. 13 measures the AG size distribution with the cap
            // lifted so the tail is visible; the "ag.size" histogram
            // lands in each cell's stats.
            BuiltinCampaign c;
            c.name = "fig13";
            c.description =
                "Fig. 13 sweep: tsoper x all benchmarks with a "
                "512-line AG cap (ag.size histograms)";
            c.spec.name = "fig13";
            c.spec.engines = {"tsoper"};
            c.spec.benches = benchmarkNames();
            c.spec.scales = {0.5};
            c.spec.seeds = {1};
            c.spec.agMaxLines = 512;
            c.spec.agbSliceLines = 1024;
            v.push_back(std::move(c));
        }
        {
            // Systematic fault injection over the engines whose
            // durable state must pass the strict-TSO audit at *any*
            // instant.  bsp / bsp-slc and hwrp are left out: our BSP
            // model only guarantees epoch-boundary durability (a
            // mid-epoch crash can expose a torn epoch), and HW-RP
            // promises only SFR-granular persistency, so it gets the
            // relaxed audit.  crash-matrix-full adds all three: there
            // 6 of 15 bsp and 9 of 15 bsp-slc cells fail and all 15
            // hwrp cells pass, but over all 21 benchmarks 4 of 105 hwrp
            // cells fail the relaxed audit through unsynchronized
            // reads-from edges (docs/campaigns.md, crash-matrix-full).
            BuiltinCampaign c;
            c.name = "crash-matrix";
            c.description =
                "Fault injection: tsoper/stw/bsp-slc-agb x "
                "radix/dedup/ocean_cp x crash at 25/50/75%, audited "
                "(expect every cell ok)";
            c.spec.name = "crash-matrix";
            c.spec.engines = {"tsoper", "stw", "bsp-slc-agb"};
            c.spec.benches = {"radix", "dedup", "ocean_cp"};
            c.spec.scales = {0.1};
            c.spec.seeds = {1, 2};
            c.spec.crashFractions = {0.25, 0.5, 0.75};
            c.spec.check = true;
            c.spec.timeoutMs = 60000;
            v.push_back(std::move(c));
        }
        {
            BuiltinCampaign c;
            c.name = "crash-matrix-full";
            c.description =
                "Fault injection over every persistent engine incl. "
                "bsp/bsp-slc/hwrp (check-failed cells expected: they "
                "map the models' vulnerability windows)";
            c.spec.name = "crash-matrix-full";
            c.spec.engines = {"stw", "bsp", "bsp-slc", "bsp-slc-agb",
                              "hwrp", "tsoper"};
            c.spec.benches = {"radix", "dedup", "ocean_cp"};
            c.spec.scales = {0.1};
            c.spec.seeds = {1};
            c.spec.crashFractions = {0.1, 0.25, 0.5, 0.75, 0.9};
            c.spec.check = true;
            c.spec.timeoutMs = 60000;
            v.push_back(std::move(c));
        }
        return v;
    }();
    return campaigns;
}

const BuiltinCampaign *
findBuiltinCampaign(const std::string &name)
{
    for (const BuiltinCampaign &c : builtinCampaigns())
        if (c.name == name)
            return &c;
    return nullptr;
}

} // namespace tsoper::campaign
