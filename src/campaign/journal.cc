#include "campaign/journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "sim/json.hh"

namespace tsoper::campaign
{

CampaignJournal::~CampaignJournal() { close(); }

bool
CampaignJournal::open(const std::string &path,
                      const std::string &campaign, bool truncate,
                      std::string *err)
{
    close();
    const int flags =
        O_WRONLY | O_CREAT | O_APPEND | (truncate ? O_TRUNC : 0);
    fd_ = ::open(path.c_str(), flags, 0644);
    if (fd_ < 0) {
        if (err)
            *err = "cannot open journal " + path + ": " +
                   std::strerror(errno);
        return false;
    }
    // Continuing a journal that already has a header must not write a
    // second one.
    const off_t size = ::lseek(fd_, 0, SEEK_END);
    if (size == 0) {
        Json header = Json::object();
        header.set("format", Json(kJournalFormat))
            .set("campaign", Json(campaign));
        writeLine(header.dump());
    }
    return true;
}

void
CampaignJournal::append(const CellReport &cell)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0)
        return;
    writeLine(cell.toJson().dump());
}

void
CampaignJournal::writeLine(const std::string &line)
{
    std::string buf = line;
    buf += '\n';
    std::size_t off = 0;
    while (off < buf.size()) {
        const ssize_t wrote =
            ::write(fd_, buf.data() + off, buf.size() - off);
        if (wrote <= 0) {
            if (errno == EINTR)
                continue;
            return; // journal is best-effort once the disk fails
        }
        off += static_cast<std::size_t>(wrote);
    }
    ::fsync(fd_); // the write-AHEAD part: durable before we move on
}

void
CampaignJournal::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

bool
loadJournal(const std::string &path, JournalIndex *out,
            std::string *err, std::string *warn)
{
    std::ifstream is(path);
    if (!is) {
        if (err)
            *err = "cannot open journal: " + path;
        return false;
    }

    std::string line;
    std::size_t lineNo = 0;
    bool sawHeader = false;
    while (std::getline(is, line)) {
        ++lineNo;
        if (line.empty())
            continue;
        Json doc;
        std::string parseErr;
        if (!Json::parse(line, &doc, &parseErr)) {
            // A torn final line means the process died mid-append;
            // anything before it is still good.  A torn line in the
            // *middle* means corruption.
            if (is.peek() == std::char_traits<char>::eof()) {
                if (warn)
                    *warn = path + " line " + std::to_string(lineNo) +
                            ": torn final record (" +
                            std::to_string(line.size()) +
                            " bytes) ignored — the writer died "
                            "mid-append";
                break;
            }
            if (err)
                *err = path + " line " + std::to_string(lineNo) + ": " +
                       parseErr;
            return false;
        }
        if (!sawHeader) {
            const Json *format = doc.find("format");
            if (!format || !format->isString() ||
                format->asString() != kJournalFormat) {
                if (err)
                    *err = path + ": not a " +
                           std::string(kJournalFormat) + " journal";
                return false;
            }
            if (const Json *name = doc.find("campaign");
                name && name->isString())
                out->campaign = name->asString();
            sawHeader = true;
            continue;
        }
        CellReport cell;
        std::string cellErr;
        if (!cellReportFromJson(doc, &cell, &cellErr)) {
            if (err)
                *err = path + " line " + std::to_string(lineNo) + ": " +
                       cellErr;
            return false;
        }
        out->cells[cell.request.id] = std::move(cell); // last wins
    }
    if (!sawHeader) {
        if (err)
            *err = path + ": empty journal (no header line)";
        return false;
    }
    return true;
}

std::string
journalPathFor(const std::string &reportPath)
{
    const std::size_t slash = reportPath.rfind('/');
    if (slash == std::string::npos)
        return "journal.jsonl";
    return reportPath.substr(0, slash + 1) + "journal.jsonl";
}

} // namespace tsoper::campaign
