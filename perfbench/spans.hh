/**
 * @file
 * In-memory span log of the traced benchmark run.
 *
 * A span is one timed interval: a public call into the simulator made
 * by a benchmark cell, a layer drive, or a pass around them.  Spans are
 * kept in memory and written out once, when the run ends (README.md,
 * "Span file").  Campaign jobs open spans concurrently, so the log is
 * guarded by a mutex; the parent of a span is the innermost span the
 * same thread has open, unless the caller names one.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int64_t parent = -1; ///< Index of the enclosing span; -1 = root.
    std::int64_t cell = -1;   ///< Cell index; -1 outside a cell.
    std::uint64_t ops = 0;    ///< Operations a layer drive performed.
};

class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span; @p parent < 0 means "innermost open on this
     *  thread". @return its id. */
    std::int64_t open(const char *name, std::int64_t cell,
                      std::int64_t parent);
    void close(std::int64_t id, std::uint64_t ops);

    /** Write every span as JSON to @p path. @return false on I/O
     *  failure. */
    bool write(const std::string &path) const;

  private:
    std::int64_t nowNs() const;

    Clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< Guarded by mu_.
};

/** RAII span; does nothing when @p log is null (untraced runs). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, std::int64_t cell = -1,
               std::int64_t parent = -1);
    ~ScopedSpan();

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    std::int64_t id() const { return id_; }
    void setOps(std::uint64_t ops) { ops_ = ops; }

  private:
    SpanLog *log_;
    std::int64_t id_ = -1;
    std::uint64_t ops_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
