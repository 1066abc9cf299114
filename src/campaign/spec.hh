/**
 * @file
 * Campaign specification: the grid a campaign sweeps.
 *
 * A spec is the cartesian product
 *
 *   engines x benches x scales x seeds x crash-fractions
 *
 * plus shared knobs (cores, AG/AGB sizes, check, timeout).  expand()
 * turns it into a flat, deterministically ordered list of RunRequest
 * manifests — same spec, same list, always — which is what makes
 * campaign reports diffable across runs and machines.
 *
 * Specs come from two places: built-in campaigns (builtin.hh) and the
 * CLI's matrix flags (tools/tsoper_campaign.cc).
 */

#ifndef TSOPER_CAMPAIGN_SPEC_HH
#define TSOPER_CAMPAIGN_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/run_request.hh"

namespace tsoper::campaign
{

struct CampaignSpec
{
    std::string name = "campaign";
    std::vector<std::string> engines{"tsoper"};
    std::vector<std::string> benches{"ocean_cp"};
    std::vector<double> scales{1.0};
    std::vector<std::uint64_t> seeds{1};
    /** Crash fractions in (0, 1]; empty = run every cell to
     *  completion instead of injecting crashes. */
    std::vector<double> crashFractions;
    unsigned cores = 8;
    unsigned agMaxLines = 0;
    unsigned agbSliceLines = 0;
    bool check = false;
    unsigned timeoutMs = 120000; ///< Per-cell wall-clock budget.
    unsigned retries = 1;        ///< Re-runs of a timed-out cell.

    /** Cells expand() will produce (product of the axis sizes). */
    std::size_t cellCount() const;
};

/**
 * Expand @p spec into run manifests, ordered engine-major then bench,
 * scale, seed, crash fraction.  Cell ids are stable and unique:
 * "<engine>/<bench>/x<scale>/s<seed>[/c<fraction>]".
 */
std::vector<RunRequest> expand(const CampaignSpec &spec);

/**
 * Check @p spec names only known engines/benchmarks, scales in
 * (0, 1000], crash fractions in (0, 1], and knobs resolveConfig accepts
 * for every engine.  Returns an empty string when valid, else the
 * first problem.
 */
std::string validateSpec(const CampaignSpec &spec);

} // namespace tsoper::campaign

#endif // TSOPER_CAMPAIGN_SPEC_HH
