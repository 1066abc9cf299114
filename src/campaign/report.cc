#include "campaign/report.hh"

#include <fstream>
#include <sstream>

namespace tsoper::campaign
{

Json
CellReport::toJson() const
{
    Json j = request.toJson();
    j.set("status", Json(toString(result.status)));
    if (!result.detail.empty())
        j.set("detail", Json(result.detail));
    j.set("cycles", Json(result.cycles))
        .set("drain_cycles", Json(result.drainCycles));
    if (result.crashCycle)
        j.set("crash_cycle", Json(result.crashCycle));
    j.set("ops", Json(result.ops)).set("stores", Json(result.stores));
    if (!result.recoverySummary.empty())
        j.set("recovery_summary", Json(result.recoverySummary));
    if (result.audited) {
        Json audit = Json::object();
        audit.set("durable_lines", Json(result.durableLines))
            .set("durable_words", Json(result.durableWords))
            .set("buffer_recovered_lines", Json(result.bufferRecoveredLines))
            .set("required_stores", Json(result.requiredStores));
        j.set("audit", std::move(audit));
    }
    if (result.persistAudited) {
        Json audit = Json::object();
        audit.set("ok", Json(result.persistAuditOk));
        if (!result.persistAuditDetail.empty())
            audit.set("detail", Json(result.persistAuditDetail));
        audit.set("commits", Json(result.persistCommits))
            .set("edges", Json(result.persistEdges))
            .set("groups", Json(result.persistGroups));
        j.set("persist_audit", std::move(audit));
    }
    j.set("attempts", Json(attempts)).set("wall_ms", Json(wallMs));
    j.set("stats", result.stats);
    return j;
}

std::size_t
CampaignReport::count(RunStatus status) const
{
    std::size_t n = 0;
    for (const CellReport &c : cells)
        if (c.result.status == status)
            ++n;
    return n;
}

bool
CampaignReport::allOk() const
{
    for (const CellReport &c : cells)
        if (c.result.status != RunStatus::Ok)
            return false;
    return true;
}

std::string
CampaignReport::summary() const
{
    std::ostringstream os;
    os << cells.size() << " cells:";
    bool any = false;
    for (RunStatus s : allRunStatuses()) {
        const std::size_t n = count(s);
        if (!n)
            continue;
        os << (any ? ", " : " ") << n << " " << toString(s);
        any = true;
    }
    if (!any)
        os << " none";
    return os.str();
}

Json
CampaignReport::toJson() const
{
    Json totals = Json::object();
    totals.set("cells", Json(static_cast<std::uint64_t>(cells.size())));
    for (RunStatus s : allRunStatuses())
        totals.set(toString(s),
                   Json(static_cast<std::uint64_t>(count(s))));

    Json cellArr = Json::array();
    for (const CellReport &c : cells)
        cellArr.push(c.toJson());

    Json j = Json::object();
    j.set("campaign", Json(name))
        .set("jobs", Json(jobs))
        .set("wall_ms", Json(wallMs))
        .set("totals", std::move(totals))
        .set("cells", std::move(cellArr));
    return j;
}

namespace
{

bool
isVolatileKey(const std::string &key, bool topLevel)
{
    if (key == "wall_ms")
        return true;
    if (topLevel)
        return key == "jobs";
    return key == "attempts";
}

// Json has no erase; canonicalization rebuilds filtered copies.
// Member insertion order is preserved, so the projection is stable.
Json
stripVolatile(const Json &j, bool topLevel)
{
    Json out = Json::object();
    for (const auto &[key, value] : j.members()) {
        if (isVolatileKey(key, topLevel))
            continue;
        if (key == "cells" && topLevel && value.isArray()) {
            Json cells = Json::array();
            for (std::size_t i = 0; i < value.size(); ++i)
                cells.push(stripVolatile(value.at(i), false));
            out.set(key, std::move(cells));
            continue;
        }
        out.set(key, value);
    }
    return out;
}

} // namespace

Json
canonicalReportJson(const CampaignReport &report)
{
    return stripVolatile(report.toJson(), /*topLevel=*/true);
}

bool
writeReportFile(const CampaignReport &report, const std::string &path,
                std::string *err)
{
    std::ofstream os(path);
    if (!os) {
        if (err)
            *err = "cannot open for writing: " + path;
        return false;
    }
    os << report.toJson().dump(2) << "\n";
    os.flush();
    if (!os) {
        if (err)
            *err = "I/O error writing: " + path;
        return false;
    }
    return true;
}

} // namespace tsoper::campaign
