/**
 * @file
 * Stock consumers for the structured trace bus (sim/trace.hh):
 *
 *  - PerfettoSink: streams trace records as Chrome/Perfetto
 *    `trace_event` JSON (load the file at https://ui.perfetto.dev).
 *    Spans become "X" complete events on per-core tracks, counters
 *    become "C" counter tracks (AGB occupancy, store-buffer depth).
 *
 *  - AuditSink: collects the Category::Persist stream — every persist
 *    issue/commit, group-durable instant and pb-edge — and check()
 *    mechanically validates that the order the engines produced is a
 *    valid strict-TSO persist order: same-address FIFO, intra-group
 *    atomicity, per-core group FIFO (engines that promise it), and
 *    persist-before edge respect.  injectReorderFault() deliberately
 *    swaps two group-durable records so tests can prove the checker
 *    actually rejects invalid orders.
 *
 *  - TraceSession: one run's wiring, used by campaign::runOne — sets
 *    the System's tracer up from TraceOptions, registers the sinks,
 *    and on finish() flushes the Perfetto file and runs the audit.
 */

#ifndef TSOPER_SIM_TRACE_SINK_HH
#define TSOPER_SIM_TRACE_SINK_HH

#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "sim/trace.hh"

namespace tsoper::trace
{

/** Streaming Chrome `trace_event` JSON writer.  Events are written as
 *  they arrive so memory stays bounded on long runs. */
class PerfettoSink : public Sink
{
  public:
    explicit PerfettoSink(const std::string &path);
    ~PerfettoSink() override;

    void record(const Record &r) override;

    /** Write the closing bracket and flush.  @return false (with a
     *  message in @p err) if the stream went bad. */
    bool close(std::string *err);

    bool failed() const { return !os_.good(); }

  private:
    void writeEvent(const std::string &line);
    void ensureThread(int tid);

    std::string path_;
    std::ofstream os_;
    bool closed_ = false;
    std::uint64_t written_ = 0;
    std::unordered_set<int> threadsNamed_;
};

/** Outcome of AuditSink::check(). */
struct AuditResult
{
    bool ok = true;
    std::string detail; ///< First violation, human-readable.
    std::uint64_t commits = 0;
    std::uint64_t edges = 0;
    std::uint64_t groups = 0;
};

class AuditSink : public Sink
{
  public:
    void record(const Record &r) override;

    /** Engines whose per-core groups persist strictly in creation
     *  order (TSOPER, STW) additionally get the per-core FIFO check. */
    void setStrictCoreFifo(bool strict) { strictCoreFifo_ = strict; }

    /**
     * Deliberately corrupt the collected log: pick (by @p seed) a
     * pb-edge whose two groups became durable at different cycles and
     * swap their group-durable records, so check() must report a
     * pinpointed pb-edge violation.  Falls back to swapping two
     * same-address commits when no such edge exists.  @return false if
     * the log offers nothing to corrupt.
     */
    bool injectReorderFault(std::uint64_t seed);

    AuditResult check() const;

    std::size_t size() const { return log_.size(); }

  private:
    struct Entry
    {
        Event event;
        CoreId core;
        Cycle cycle;
        std::uint64_t id; ///< Line (issue/commit), tag (durable/edge).
        std::uint64_t a;  ///< Group tag (issue/commit), to-tag (edge).
    };

    std::vector<Entry> log_;
    bool strictCoreFifo_ = false;
};

/** Everything a run can ask of the trace layer; resolved by
 *  TraceSession.  Mirrors the campaign::RunRequest trace fields. */
struct TraceOptions
{
    std::string categories;  ///< csv for parseCategories; "" = none.
    std::string perfettoPath;///< trace_event JSON output; "" = none.
    bool auditPersists = false;
    std::string auditFault;  ///< "" or "reorder" (test the checker).
    unsigned flightRecorderDepth = 0;
    std::uint64_t faultSeed = 1;
    bool strictCoreFifo = false;

    /** Are the user-typed values valid: known categories and audit
     *  fault, and a flight-recorder depth of at most 2^20 records
     *  (48 MiB of ring)?
     *  @return false with a message naming the valid set in @p err. */
    bool check(std::string *err) const;
};

/**
 * The trace wiring of one run, bound to its System's tracer: sets the
 * categories, registers the sinks and sizes the flight ring.  Build it
 * after the System and before the System runs, from options that pass
 * TraceOptions::check.  The destructor unhooks the sinks.
 */
class TraceSession
{
  public:
    struct Outcome
    {
        bool audited = false;
        AuditResult audit;
        std::string perfettoError; ///< "" unless the file write failed.
    };

    TraceSession(Tracer &tracer, const TraceOptions &opt);
    ~TraceSession();

    TraceSession(const TraceSession &) = delete;
    TraceSession &operator=(const TraceSession &) = delete;

    /** Flush the Perfetto file and run the audit (idempotent). */
    Outcome finish();

  private:
    Tracer &tracer_;
    TraceOptions opt_;
    bool finished_ = false;
    Outcome outcome_;
    std::unique_ptr<PerfettoSink> perfetto_;
    std::unique_ptr<AuditSink> audit_;
};

} // namespace tsoper::trace

#endif // TSOPER_SIM_TRACE_SINK_HH
