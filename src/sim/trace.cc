#include "sim/trace.hh"

#include <algorithm>
#include <iomanip>
#include <iterator>
#include <sstream>

namespace tsoper::trace
{

namespace
{

constexpr const char *categoryNames_[numCategories] = {
    "ag", "agb", "slc", "sb", "llc", "noc", "persist",
};

/** Indexed by Event; one row per category. */
constexpr const char *eventNames_[] = {
    "ag_frozen", "ag_retired", "epoch_closed", "epoch_persisted",
    "sfr_flushed", "stw_stall", "sync_op",
    "agb_grant", "agb_occupancy", "agb_drained",
    "slc_new_head", "slc_invalidate", "slc_dir_evict", "slc_persist",
    "sb_depth",
    "llc_access",
    "noc_msg",
    "persist_issue", "persist_commit", "group_durable", "pb_edge",
};
static_assert(std::size(eventNames_) ==
              static_cast<unsigned>(Event::NumEvents));

} // namespace

const char *
eventName(Event e)
{
    return eventNames_[static_cast<unsigned>(e)];
}

const char *
categoryName(Category c)
{
    return categoryNames_[static_cast<unsigned>(c)];
}

bool
parseCategories(const std::string &csv, Mask *out, std::string *err)
{
    Mask next{};
    std::size_t pos = 0;
    while (pos <= csv.size() && !csv.empty()) {
        const std::size_t comma = csv.find(',', pos);
        const std::string tok =
            csv.substr(pos, comma == std::string::npos ? std::string::npos
                                                       : comma - pos);
        if (tok == "all") {
            next.fill(true);
        } else if (!tok.empty()) {
            const auto it = std::find(std::begin(categoryNames_),
                                      std::end(categoryNames_), tok);
            if (it == std::end(categoryNames_)) {
                if (err) {
                    *err = "unknown trace category '" + tok +
                           "' (valid: all";
                    for (const char *name : categoryNames_)
                        *err += std::string(",") + name;
                    *err += ")";
                }
                return false;
            }
            next[it - std::begin(categoryNames_)] = true;
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    *out = next;
    return true;
}

std::string
formatRecord(const Record &r)
{
    std::ostringstream os;
    os << "[" << std::setw(10) << r.end << "] "
       << categoryName(categoryOf(r.event)) << "." << eventName(r.event);
    if (r.core != invalidCore)
        os << " core=" << r.core;
    if (r.begin != r.end)
        os << " span=" << r.begin << ".." << r.end;
    os << " id=0x" << std::hex << r.id << std::dec << " a=" << r.a
       << " b=" << r.b;
    return os.str();
}

void
Tracer::addSink(Sink *sink)
{
    sinks_.push_back(sink);
}

void
Tracer::removeSink(Sink *sink)
{
    sinks_.erase(std::remove(sinks_.begin(), sinks_.end(), sink),
                 sinks_.end());
}

void
Tracer::setFlightRecorderDepth(unsigned depth)
{
    ring_.assign(depth, Record{});
    ringNext_ = 0;
    ringCount_ = 0;
}

std::string
Tracer::flightRecorderDump() const
{
    if (ringCount_ == 0)
        return {};
    std::ostringstream os;
    os << "flight recorder (last " << ringCount_ << " trace records):";
    const std::size_t depth = ring_.size();
    const std::size_t first = ringCount_ < depth ? 0 : ringNext_;
    for (std::size_t i = 0; i < ringCount_; ++i)
        os << "\n  " << formatRecord(ring_[(first + i) % depth]);
    return os.str();
}

void
Tracer::record(const Record &r)
{
    if (!ring_.empty()) {
        ring_[ringNext_] = r;
        ringNext_ = (ringNext_ + 1) % ring_.size();
        ringCount_ = std::min(ringCount_ + 1, ring_.size());
    }
    for (Sink *s : sinks_)
        s->record(r);
}

} // namespace tsoper::trace
