#include "spans.hh"

#include <fstream>

namespace perfbench
{

namespace
{

/** Spans this thread has open, innermost last. */
thread_local std::vector<std::int64_t> openStack;

} // namespace

std::int64_t
SpanLog::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

std::int64_t
SpanLog::open(const char *name, std::int64_t cell, std::int64_t parent)
{
    if (parent < 0 && !openStack.empty())
        parent = openStack.back();
    Span s;
    s.name = name;
    s.parent = parent;
    s.cell = cell;
    std::int64_t id;
    {
        std::lock_guard<std::mutex> lock(mu_);
        id = static_cast<std::int64_t>(spans_.size());
        s.startNs = nowNs();
        spans_.push_back(s);
    }
    openStack.push_back(id);
    return id;
}

void
SpanLog::close(std::int64_t id, std::uint64_t ops)
{
    openStack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    spans_[static_cast<std::size_t>(id)].ops = ops;
}

bool
SpanLog::write(const std::string &path) const
{
    std::ofstream os(path);
    std::lock_guard<std::mutex> lock(mu_);
    os << "{\"unit\":\"ns\",\"spans\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"start\":" << s.startNs
           << ",\"end\":" << s.endNs << ",\"parent\":" << s.parent
           << ",\"cell\":" << s.cell << ",\"ops\":" << s.ops << "}";
    }
    os << "\n]}\n";
    return static_cast<bool>(os.flush());
}

ScopedSpan::ScopedSpan(SpanLog *log, const char *name, std::int64_t cell,
                       std::int64_t parent)
    : log_(log)
{
    if (log_)
        id_ = log_->open(name, cell, parent);
}

ScopedSpan::~ScopedSpan()
{
    if (log_)
        log_->close(id_, ops_);
}

} // namespace perfbench
