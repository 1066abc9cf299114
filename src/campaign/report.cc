#include "campaign/report.hh"

#include <fstream>
#include <sstream>

namespace tsoper::campaign
{

Json
CellReport::toJson() const
{
    // The request's fields, then the result as runResultToJson writes
    // it (cellReportFromJson reads it back with runResultFromJson),
    // with the cell's own fields ahead of the bulky stats.
    Json j = request.toJson();
    const Json res = runResultToJson(result);
    for (const auto &[key, value] : res.members())
        if (key != "stats")
            j.set(key, value);
    j.set("attempts", Json(attempts)).set("wall_ms", Json(wallMs));
    if (quarantined)
        j.set("quarantined", Json(true));
    if (attemptLog.size() >= 2) {
        // A single clean attempt would only duplicate the cell's own
        // status/wall_ms, so the log is emitted for retried cells only.
        Json logArr = Json::array();
        for (const AttemptRecord &a : attemptLog) {
            Json entry = Json::object();
            entry.set("status", Json(toString(a.status)))
                .set("wall_ms", Json(a.wallMs));
            if (!a.detail.empty())
                entry.set("detail", Json(a.detail));
            logArr.push(std::move(entry));
        }
        j.set("attempt_log", std::move(logArr));
    }
    j.set("stats", res["stats"]);
    return j;
}

bool
cellReportFromJson(const Json &j, CellReport *out, std::string *err)
{
    CellReport cell;
    cell.request = runRequestFromJson(j);
    if (cell.request.id.empty()) {
        if (err)
            *err = "cell record has no id";
        return false;
    }
    std::string resErr;
    if (!runResultFromJson(j, &cell.result, &resErr)) {
        if (err)
            *err = "cell " + cell.request.id + ": " + resErr;
        return false;
    }
    if (const Json *attempts = j.find("attempts");
        attempts && attempts->isNumber())
        cell.attempts = static_cast<unsigned>(attempts->asUint());
    if (const Json *wall = j.find("wall_ms"); wall && wall->isNumber())
        cell.wallMs = wall->asDouble();
    if (const Json *q = j.find("quarantined"); q && q->isBool())
        cell.quarantined = q->asBool();
    if (const Json *logArr = j.find("attempt_log");
        logArr && logArr->isArray()) {
        for (std::size_t i = 0; i < logArr->size(); ++i) {
            const Json &entry = logArr->at(i);
            AttemptRecord a;
            if (const Json *st = entry.find("status");
                st && st->isString())
                runStatusFromName(st->asString(), &a.status);
            if (const Json *wall = entry.find("wall_ms");
                wall && wall->isNumber())
                a.wallMs = wall->asDouble();
            if (const Json *detail = entry.find("detail");
                detail && detail->isString())
                a.detail = detail->asString();
            cell.attemptLog.push_back(std::move(a));
        }
    }
    *out = std::move(cell);
    return true;
}

std::size_t
CampaignReport::count(RunStatus status) const
{
    std::size_t n = 0;
    for (const CellReport &c : cells)
        if (!c.quarantined && c.result.status == status)
            ++n;
    return n;
}

std::size_t
CampaignReport::quarantinedCount() const
{
    std::size_t n = 0;
    for (const CellReport &c : cells)
        if (c.quarantined)
            ++n;
    return n;
}

std::size_t
CampaignReport::resumedCount() const
{
    std::size_t n = 0;
    for (const CellReport &c : cells)
        if (c.fromJournal)
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
    if (const std::size_t q = quarantinedCount()) {
        os << (any ? ", " : " ") << q << " quarantined";
        any = true;
    }
    if (!any)
        os << " none";
    if (const std::size_t r = resumedCount())
        os << "; " << r << " resumed from journal";
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
    totals.set("quarantined",
               Json(static_cast<std::uint64_t>(quarantinedCount())));

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
    return key == "attempts" || key == "attempt_log" ||
           key == "stderr_tail";
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

bool
verifyReportFile(const std::string &path, bool requireAllOk,
                 std::string *err)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open: " + path;
        return false;
    }
    std::ostringstream buf;
    buf << is.rdbuf();

    Json doc;
    std::string parseErr;
    if (!Json::parse(buf.str(), &doc, &parseErr)) {
        if (err)
            *err = path + ": " + parseErr;
        return false;
    }
    const Json *totals = doc.find("totals");
    const Json *cellArr = doc.find("cells");
    if (!totals || !totals->isObject() || !cellArr ||
        !cellArr->isArray()) {
        if (err)
            *err = path + ": missing totals/cells";
        return false;
    }
    const Json *cellTotal = totals->find("cells");
    if (!cellTotal || !cellTotal->isNumber() ||
        cellTotal->asUint() != cellArr->size()) {
        if (err)
            *err = path + ": totals.cells disagrees with cell list";
        return false;
    }
    std::size_t ok = 0;
    for (std::size_t i = 0; i < cellArr->size(); ++i) {
        const Json &cell = cellArr->at(i);
        const Json *status = cell.find("status");
        if (!status || !status->isString()) {
            if (err)
                *err = path + ": cell " + std::to_string(i) +
                       " has no status";
            return false;
        }
        if (status->asString() == toString(RunStatus::Ok))
            ++ok;
        else if (requireAllOk) {
            const Json *id = cell.find("id");
            if (err)
                *err = path + ": cell " +
                       (id && id->isString() ? id->asString()
                                             : std::to_string(i)) +
                       " is " + status->asString();
            return false;
        }
    }
    const Json *okTotal = totals->find(toString(RunStatus::Ok));
    if (!okTotal || !okTotal->isNumber() || okTotal->asUint() != ok) {
        if (err)
            *err = path + ": totals.ok disagrees with cell statuses";
        return false;
    }
    return true;
}

} // namespace tsoper::campaign
