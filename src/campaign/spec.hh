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
 * Specs come from three places: built-in campaigns (builtin.hh), CLI
 * matrix flags (tools/tsoper_campaign.cc), or a small text format:
 *
 *   # comment
 *   name            = nightly
 *   engines         = tsoper, stw        # or "all"
 *   benches         = radix, dedup      # or "all"
 *   scales          = 0.1, 0.5
 *   seeds           = 1, 2, 3
 *   crash-fractions = 0.25, 0.5, 0.75   # omit for plain runs
 *   check           = true
 *   cores           = 8
 *   timeout-ms      = 60000
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
 * Check @p spec names only known engines/benchmarks, positive finite
 * scales, crash fractions in (0, 1], and knobs resolveConfig accepts
 * for every engine.  Returns an empty string when valid, else the
 * first problem.
 */
std::string validateSpec(const CampaignSpec &spec);

/**
 * Strict number syntax for spec values and both CLIs' flags: decimal
 * digits only (no sign, space or suffix), at most @p max.
 */
bool parseUint(const std::string &s, std::uint64_t max, std::uint64_t *out);

/** A number spanning all of @p s (std::from_chars) that is finite. */
bool parseFiniteDouble(const std::string &s, double *out);

/**
 * Parse the key = value text format above into @p out (starting from
 * a default-constructed spec).  Numbers are decimal digits only, each
 * within its field's range.  Returns false with a message in @p err
 * (including the line number) on malformed input.  Does not validate
 * names — call validateSpec() after.
 */
bool parseSpecText(const std::string &text, CampaignSpec *out,
                   std::string *err);

/** parseSpecText over the contents of @p path. */
bool loadSpecFile(const std::string &path, CampaignSpec *out,
                  std::string *err);

} // namespace tsoper::campaign

#endif // TSOPER_CAMPAIGN_SPEC_HH
