#include "sim/trace_sink.hh"

#include <deque>
#include <sstream>
#include <unordered_map>

#include "sim/log.hh"

namespace tsoper::trace
{

namespace
{

/** Events rendered as Chrome "X" (complete) duration events; everything
 *  else is an instant or a counter. */
bool
isSpan(Event e)
{
    switch (e) {
      case Event::AgRetired:
      case Event::EpochPersisted:
      case Event::StwStall:
      case Event::LlcAccess:
      case Event::NocMsg:
        return true;
      default:
        return false;
    }
}

bool
isCounter(Event e)
{
    return e == Event::AgbOccupancy || e == Event::SbDepth;
}

std::string
tagStr(std::uint64_t tag)
{
    std::ostringstream os;
    os << "0x" << std::hex << tag;
    return os.str();
}

} // namespace

//
// PerfettoSink
//

PerfettoSink::PerfettoSink(const std::string &path)
    : path_(path), os_(path)
{
    if (!os_.good())
        tsoper_fatal("cannot open trace output file '", path_, "'");
    os_ << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
    writeEvent("{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
               "\"args\":{\"name\":\"tsoper_sim\"}}");
}

PerfettoSink::~PerfettoSink()
{
    std::string err;
    close(&err);
}

void
PerfettoSink::writeEvent(const std::string &line)
{
    if (written_++ > 0)
        os_ << ",\n";
    os_ << line;
}

void
PerfettoSink::ensureThread(int tid)
{
    if (!threadsNamed_.insert(tid).second)
        return;
    std::ostringstream os;
    os << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << tid
       << ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    if (tid == 0)
        os << "system";
    else
        os << "core " << (tid - 1);
    os << "\"}}";
    writeEvent(os.str());
}

void
PerfettoSink::record(const Record &r)
{
    if (closed_)
        return;
    // invalidCore (system-wide records: SLC, LLC, AGB occupancy) lands
    // on tid 0; core N on tid N+1.
    const int tid = r.core == invalidCore ? 0 : r.core + 1;
    ensureThread(tid);

    std::ostringstream os;
    if (isCounter(r.event)) {
        os << "{\"ph\":\"C\",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
           << r.end << ",\"name\":\"" << eventName(r.event);
        if (r.event == Event::SbDepth && r.core != invalidCore)
            os << " core" << r.core;
        os << "\",\"args\":{\"value\":" << r.a << "}}";
    } else if (isSpan(r.event)) {
        os << "{\"ph\":\"X\",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
           << r.begin << ",\"dur\":" << (r.end - r.begin) << ",\"name\":\""
           << eventName(r.event) << "\",\"cat\":\""
           << categoryName(categoryOf(r.event)) << "\",\"args\":{\"id\":\""
           << tagStr(r.id) << "\",\"a\":" << r.a << ",\"b\":" << r.b
           << "}}";
    } else {
        os << "{\"ph\":\"i\",\"pid\":0,\"tid\":" << tid << ",\"ts\":"
           << r.end << ",\"s\":\"t\",\"name\":\"" << eventName(r.event)
           << "\",\"cat\":\"" << categoryName(categoryOf(r.event))
           << "\",\"args\":{\"id\":\"" << tagStr(r.id) << "\",\"a\":"
           << r.a << ",\"b\":" << r.b << "}}";
    }
    writeEvent(os.str());
}

bool
PerfettoSink::close(std::string *err)
{
    if (closed_)
        return true;
    closed_ = true;
    os_ << "]}\n";
    os_.flush();
    if (!os_.good()) {
        if (err)
            *err = "write to trace output file '" + path_ + "' failed";
        return false;
    }
    return true;
}

//
// AuditSink
//

void
AuditSink::record(const Record &r)
{
    if (categoryOf(r.event) != Category::Persist)
        return;
    log_.push_back(Entry{r.event, r.core, r.end, r.id, r.a});
}

bool
AuditSink::injectReorderFault(std::uint64_t seed)
{
    // Index the group-durable records so we can corrupt them in place.
    std::unordered_map<std::uint64_t, std::size_t> durableAt;
    for (std::size_t i = 0; i < log_.size(); ++i)
        if (log_[i].event == Event::GroupDurable)
            durableAt.emplace(log_[i].id, i);

    // Preferred fault: take a pb-edge whose endpoints became durable at
    // strictly different cycles and swap those cycles — the persist
    // order now contradicts the edge, which check() must pinpoint.
    std::vector<std::pair<std::size_t, std::size_t>> candidates;
    for (const Entry &e : log_) {
        if (e.event != Event::PbEdge)
            continue;
        auto from = durableAt.find(e.id);
        auto to = durableAt.find(e.a);
        if (from == durableAt.end() || to == durableAt.end())
            continue;
        if (log_[from->second].cycle < log_[to->second].cycle)
            candidates.emplace_back(from->second, to->second);
    }
    if (!candidates.empty()) {
        const auto &[i, j] = candidates[seed % candidates.size()];
        std::swap(log_[i].cycle, log_[j].cycle);
        return true;
    }

    // Fallback: swap two commits of the same line that belong to
    // different groups, breaking same-address FIFO.
    std::unordered_map<std::uint64_t, std::size_t> lastCommit;
    for (std::size_t i = 0; i < log_.size(); ++i) {
        if (log_[i].event != Event::PersistCommit)
            continue;
        auto prev = lastCommit.find(log_[i].id);
        if (prev != lastCommit.end() && log_[prev->second].a != log_[i].a) {
            std::swap(log_[prev->second], log_[i]);
            return true;
        }
        lastCommit[log_[i].id] = i;
    }
    return false;
}

AuditResult
AuditSink::check() const
{
    AuditResult res;

    // Pass 1: index durable records and count the record kinds.
    std::unordered_map<std::uint64_t, std::size_t> durableIdx;
    for (std::size_t i = 0; i < log_.size(); ++i) {
        const Entry &e = log_[i];
        switch (e.event) {
          case Event::PersistCommit:
            ++res.commits;
            break;
          case Event::PbEdge:
            ++res.edges;
            break;
          case Event::GroupDurable:
            ++res.groups;
            if (!durableIdx.emplace(e.id, i).second) {
                res.ok = false;
                res.detail = "group " + tagStr(e.id) +
                             " reported durable twice";
                return res;
            }
            break;
          default:
            break;
        }
    }

    // C1 — same-address FIFO: commits to a line must consume that
    // line's issues in issue order (strict TSO persist order forbids
    // reordering two persists of the same address).
    std::unordered_map<std::uint64_t, std::deque<Entry>> inflight;
    // C3 — per-core group FIFO (engines that promise it): group-durable
    // records on one core must appear in group-creation order.
    std::unordered_map<CoreId, std::uint64_t> lastLocalId;

    for (const Entry &e : log_) {
        switch (e.event) {
          case Event::PersistIssue:
            inflight[e.id].push_back(e);
            break;
          case Event::PersistCommit: {
            auto it = inflight.find(e.id);
            if (it == inflight.end() || it->second.empty()) {
                res.ok = false;
                res.detail = "line " + tagStr(e.id) + " committed at [" +
                             std::to_string(e.cycle) +
                             "] without a pending issue";
                return res;
            }
            const Entry &issue = it->second.front();
            if (issue.a != e.a) {
                res.ok = false;
                res.detail =
                    "same-address FIFO violated on line " + tagStr(e.id) +
                    ": oldest pending issue belongs to group " +
                    tagStr(issue.a) + " but commit at [" +
                    std::to_string(e.cycle) + "] belongs to group " +
                    tagStr(e.a);
                return res;
            }
            it->second.pop_front();
            break;
          }
          case Event::GroupDurable:
            if (strictCoreFifo_ && e.core != invalidCore) {
                const std::uint64_t localId = e.id & 0xffffffffffffull;
                auto it = lastLocalId.find(e.core);
                if (it != lastLocalId.end() && localId <= it->second) {
                    res.ok = false;
                    res.detail =
                        "per-core group FIFO violated on core " +
                        std::to_string(e.core) + ": group " + tagStr(e.id) +
                        " durable after group " +
                        tagStr(groupTag(e.core, it->second));
                    return res;
                }
                lastLocalId[e.core] = localId;
            }
            break;
          default:
            break;
        }
    }

    // C2 — intra-group atomicity: once a group is durable no further
    // commit may belong to it (all its persists completed first).
    std::unordered_map<std::uint64_t, const Entry *> sealed;
    for (const Entry &e : log_) {
        if (e.event == Event::GroupDurable) {
            sealed.emplace(e.id, &e);
        } else if (e.event == Event::PersistCommit) {
            auto it = sealed.find(e.a);
            if (it != sealed.end()) {
                res.ok = false;
                res.detail =
                    "group atomicity violated: group " + tagStr(e.a) +
                    " durable at [" + std::to_string(it->second->cycle) +
                    "] but line " + tagStr(e.id) +
                    " committed later at [" + std::to_string(e.cycle) + "]";
                return res;
            }
        }
    }

    // C4 — pb-edge respect: the source group of every persist-before
    // edge must be durable no later than the destination group.  Groups
    // still pending at end of run cannot violate the edge.
    for (const Entry &e : log_) {
        if (e.event != Event::PbEdge)
            continue;
        auto from = durableIdx.find(e.id);
        auto to = durableIdx.find(e.a);
        if (from == durableIdx.end() || to == durableIdx.end())
            continue;
        const Cycle fromCycle = log_[from->second].cycle;
        const Cycle toCycle = log_[to->second].cycle;
        if (toCycle < fromCycle) {
            res.ok = false;
            res.detail =
                "pb-edge violated: group " + tagStr(e.id) +
                " must persist before group " + tagStr(e.a) +
                ", but they became durable at [" +
                std::to_string(fromCycle) + "] and [" +
                std::to_string(toCycle) + "]";
            return res;
        }
    }

    return res;
}

//
// TraceSession
//

bool
TraceOptions::check(std::string *err) const
{
    Mask mask;
    if (!parseCategories(categories, &mask, err))
        return false;
    if (!auditFault.empty() && auditFault != "reorder") {
        if (err)
            *err = "unknown audit fault '" + auditFault +
                   "' (valid: reorder)";
        return false;
    }
    // The ring is allocated up front, one Record per slot.
    constexpr unsigned maxDepth = 1u << 20;
    if (flightRecorderDepth > maxDepth) {
        if (err)
            *err = "flight-recorder depth must be at most " +
                   std::to_string(maxDepth) + " records, got " +
                   std::to_string(flightRecorderDepth);
        return false;
    }
    return true;
}

TraceSession::TraceSession(Tracer &tracer, const TraceOptions &opt)
    : tracer_(tracer), opt_(opt)
{
    Mask mask{};
    std::string err;
    tsoper_assert(parseCategories(opt_.categories, &mask, &err), err);
    // --trace-out / --flight-recorder without categories: record
    // everything.
    if (opt_.categories.empty() && (!opt_.perfettoPath.empty() ||
                                    opt_.flightRecorderDepth > 0))
        mask.fill(true);
    // The audit needs the persist stream regardless of what the user
    // picked for the other consumers.
    if (opt_.auditPersists)
        mask[static_cast<unsigned>(Category::Persist)] = true;
    tracer_.setMask(mask);

    if (!opt_.perfettoPath.empty()) {
        perfetto_ = std::make_unique<PerfettoSink>(opt_.perfettoPath);
        tracer_.addSink(perfetto_.get());
    }
    if (opt_.auditPersists) {
        audit_ = std::make_unique<AuditSink>();
        audit_->setStrictCoreFifo(opt_.strictCoreFifo);
        tracer_.addSink(audit_.get());
    }
    tracer_.setFlightRecorderDepth(opt_.flightRecorderDepth);
}

TraceSession::~TraceSession()
{
    finish();
}

TraceSession::Outcome
TraceSession::finish()
{
    if (finished_)
        return outcome_;
    finished_ = true;

    if (perfetto_)
        tracer_.removeSink(perfetto_.get());
    if (audit_)
        tracer_.removeSink(audit_.get());

    if (audit_) {
        outcome_.audited = true;
        if (opt_.auditFault == "reorder" &&
            !audit_->injectReorderFault(opt_.faultSeed)) {
            outcome_.audit.ok = false;
            outcome_.audit.detail =
                "audit fault 'reorder' found no reorderable persist pair "
                "(trace too short?)";
        } else {
            outcome_.audit = audit_->check();
        }
    }
    if (perfetto_) {
        std::string err;
        if (!perfetto_->close(&err))
            outcome_.perfettoError = err;
    }
    return outcome_;
}

} // namespace tsoper::trace
