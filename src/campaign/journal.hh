/**
 * @file
 * Write-ahead campaign journal: resume an interrupted sweep where it
 * left off.
 *
 * A campaign's report is written once, at the end — so a crash of the
 * campaign process (or a ctrl-C, or a node reclaim) an hour into a
 * fig11 sweep used to lose every finished cell.  The journal fixes
 * that: each completed cell is appended *durably* (write + fsync) to
 * `journal.jsonl` next to the report as one compact JSON line, and
 * `tsoper_campaign --resume <dir>` reloads it and re-runs only the
 * cells that are missing.
 *
 * Format (`tsoper.campaign.journal/v1`):
 *
 *   {"format":"tsoper.campaign.journal/v1","campaign":"fig11"}
 *   {"id":"tsoper/radix/x0.1/s1", ... full CellReport JSON ...}
 *   {"id":"tsoper/dedup/x0.1/s1", ...}
 *
 * The first line is the header; every other line is exactly
 * CellReport::toJson() in compact form, so a resumed report is
 * byte-identical to an uninterrupted one for the journaled cells.  A
 * torn final line (the process died mid-append) is detected and
 * ignored on load, with a warning surfaced to the caller.  Cells are
 * matched by id AND by their full request header: if the spec changed
 * under the journal, the stale entry is re-run rather than silently
 * reused.
 */

#ifndef TSOPER_CAMPAIGN_JOURNAL_HH
#define TSOPER_CAMPAIGN_JOURNAL_HH

#include <mutex>
#include <string>
#include <unordered_map>

#include "campaign/report.hh"

namespace tsoper::campaign
{

/** The journal format tag written in the header line. */
inline constexpr const char *kJournalFormat =
    "tsoper.campaign.journal/v1";

/** Parsed journal contents, keyed by cell id (last entry wins). */
struct JournalIndex
{
    std::string campaign;
    std::unordered_map<std::string, CellReport> cells;
};

/**
 * Append-side handle.  Thread-safe: the runner's job threads append
 * as their cells finish.  Every append is flushed and fsync'd before
 * returning — the write-ahead guarantee the resume path relies on.
 */
class CampaignJournal
{
  public:
    CampaignJournal() = default;
    ~CampaignJournal();

    CampaignJournal(const CampaignJournal &) = delete;
    CampaignJournal &operator=(const CampaignJournal &) = delete;

    /**
     * Open @p path for appending and write the header.  @p truncate
     * starts a fresh journal (normal runs); false continues an
     * existing one (--resume) and skips the header if the file
     * already has content.  Returns false with a message in @p err on
     * I/O failure.
     */
    bool open(const std::string &path, const std::string &campaign,
              bool truncate, std::string *err);

    /** Durably append one completed cell (no-op if not open). */
    void append(const CellReport &cell);

    void close();

  private:
    void writeLine(const std::string &line);

    std::mutex mutex_;
    int fd_ = -1;
};

/**
 * Load @p path into @p out.  Tolerates a torn trailing line (the
 * appender died mid-write) — when one is found it is ignored and a
 * one-line description is placed in @p warn (if non-null).  Fails on
 * a missing file, a bad header, a format-tag mismatch, or corruption
 * anywhere but the final line.
 */
bool loadJournal(const std::string &path, JournalIndex *out,
                 std::string *err, std::string *warn = nullptr);

/** The journal's location for a report written to @p reportPath:
 *  `journal.jsonl` in the same directory. */
std::string journalPathFor(const std::string &reportPath);

} // namespace tsoper::campaign

#endif // TSOPER_CAMPAIGN_JOURNAL_HH
