/**
 * @file
 * Campaign report: the aggregated outcome of every cell, serialized
 * to a single JSON artifact (BENCH_campaign.json).
 *
 * Cells appear in spec-expansion order regardless of the order the
 * job threads finished them, and everything derived from the
 * simulation (status, cycles, audit, stats) is deterministic given the
 * spec — only the "wall_ms"/"attempts" bookkeeping fields vary between
 * runs.  See docs/campaigns.md for the schema.
 */

#ifndef TSOPER_CAMPAIGN_REPORT_HH
#define TSOPER_CAMPAIGN_REPORT_HH

#include <string>
#include <vector>

#include "campaign/run_request.hh"
#include "sim/json.hh"

namespace tsoper::campaign
{

/** One executed cell. */
struct CellReport
{
    RunRequest request;
    RunResult result;       ///< Outcome of the final attempt.
    unsigned attempts = 1;
    double wallMs = 0.0;    ///< Wall-clock of the final attempt.

    /** The request's fields, then the result's, then "attempts" and
     *  "wall_ms", with the bulky "stats" last. */
    Json toJson() const;
};

struct CampaignReport
{
    std::string name;
    unsigned jobs = 1;
    double wallMs = 0.0; ///< End-to-end campaign wall-clock.
    std::vector<CellReport> cells; ///< Spec-expansion order.

    /** Cells with this final status. */
    std::size_t count(RunStatus status) const;

    /** Every cell finished RunStatus::Ok. */
    bool allOk() const;

    /** One-line outcome: "54 cells: 52 ok, 1 check-failed,
     *  1 timeout". */
    std::string summary() const;

    Json toJson() const;
};

/**
 * The report reduced to its deterministic content: toJson() minus the
 * fields that legitimately vary between runs of the same spec —
 * wall-clock ("wall_ms" everywhere), scheduling ("jobs") and retry
 * bookkeeping ("attempts").  Two runs
 * of one spec at any job count must dump() byte-identical canonical
 * forms; the campaign determinism test (tests/test_campaign.cc)
 * enforces exactly that.
 */
Json canonicalReportJson(const CampaignReport &report);

/**
 * Write @p report.toJson() to @p path (pretty-printed, trailing
 * newline).  Returns false with a message in @p err on I/O failure.
 */
bool writeReportFile(const CampaignReport &report,
                     const std::string &path, std::string *err);

} // namespace tsoper::campaign

#endif // TSOPER_CAMPAIGN_REPORT_HH
