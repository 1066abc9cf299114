/**
 * @file
 * Structured trace bus: typed, low-overhead event records published by
 * the simulator's components and fanned out to registered sinks
 * (sim/trace_sink.hh — Perfetto export, persist-order audit, flight
 * recorder).
 *
 * Every record carries its event kind, category, core, one or two
 * cycles (instant or span), and up to three integer arguments whose
 * meaning is fixed per event kind.
 *
 * Each System owns one Tracer (the category mask, the sinks and the
 * flight ring).  System::run and System::runUntilCrash bind it to the
 * calling thread with a trace::Scope, and the emit functions below
 * publish to whatever tracer the thread has bound.  Concurrent Systems
 * on different threads therefore never see each other's records, and
 * nothing here takes a lock.
 *
 * Cost model: with no System running on the thread an emit site is one
 * thread-local load and a branch; while one runs, a second load checks
 * the category.  No record is built and no virtual call is made for a
 * disabled category.
 */

#ifndef TSOPER_SIM_TRACE_HH
#define TSOPER_SIM_TRACE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tsoper
{
class EventQueue;
} // namespace tsoper

namespace tsoper::trace
{

enum class Category : unsigned
{
    Ag,      ///< Group lifecycle: AG / BSP epoch / SFR batch spans.
    Agb,     ///< AGB allocation, grants, occupancy.
    Slc,     ///< Sharing-list surgery (link, invalidate, token pass).
    Sb,      ///< Store-buffer depth.
    Llc,     ///< LLC bank transactions.
    Noc,     ///< Mesh messages.
    Persist, ///< Persist-order audit stream (issues, commits, edges).
    NumCategories,
};

enum class Event : unsigned
{
    // Category::Ag — group lifecycle.
    AgFrozen,     ///< instant; id=group tag, a=members, b=FreezeReason.
    AgRetired,    ///< span open..retire; id=group tag, a=dirty, b=stores.
    EpochClosed,  ///< instant; id=epoch tag, a=lines, b=stores.
    EpochPersisted, ///< span open..persisted; id=epoch tag, a=lines.
    SfrFlushed,   ///< instant; id=batch tag, a=lines.
    StwStall,     ///< span stall..resume; id=0.
    SyncOp,       ///< instant; id=lock/barrier id, a=SyncEvent (lock
                  ///  acquire or barrier arrival: an SFR boundary).

    // Category::Agb.
    AgbGrant,     ///< instant; id=audit tag, a=lines, b=occupancy.
    AgbOccupancy, ///< counter; a=total reserved lines.
    AgbDrained,   ///< instant; id=audit tag (fully durable in NVM).

    // Category::Slc.
    SlcNewHead,   ///< instant; id=line.
    SlcInvalidate,///< instant; id=line, a=dirty.
    SlcDirEvict,  ///< instant; id=line (directory eviction teardown).
    SlcPersist,   ///< instant; id=line (token passes headwards).

    // Category::Sb.
    SbDepth,      ///< counter per core; a=entries.

    // Category::Llc.
    LlcAccess,    ///< span request..done; id=line, a=bank.

    // Category::Noc.
    NocMsg,       ///< span depart..arrive; id=(src<<32|dst), a=bytes.

    // Category::Persist — the audit stream (trace_sink.hh).
    PersistIssue, ///< instant; id=line, a=group tag.
    PersistCommit,///< instant; id=line, a=group tag (durable point).
    GroupDurable, ///< instant; id=group tag, a=line count.
    PbEdge,       ///< instant; id=from tag, a=to tag (from persists first).

    NumEvents,
};

/** One trace record.  For instants begin == end. */
struct Record
{
    Event event = Event::NumEvents;
    CoreId core = invalidCore;
    Cycle begin = 0;
    Cycle end = 0;
    std::uint64_t id = 0;
    std::uint64_t a = 0;
    std::uint64_t b = 0;
};

/** Consumer interface; see sim/trace_sink.hh for the stock sinks. */
class Sink
{
  public:
    virtual ~Sink() = default;
    virtual void record(const Record &r) = 0;
};

/** Category of @p e.  Events are declared grouped by category, in
 *  category order, so a constant @p e folds to a constant here. */
constexpr Category
categoryOf(Event e)
{
    return e <= Event::SyncOp       ? Category::Ag
           : e <= Event::AgbDrained ? Category::Agb
           : e <= Event::SlcPersist ? Category::Slc
           : e <= Event::SbDepth    ? Category::Sb
           : e <= Event::LlcAccess  ? Category::Llc
           : e <= Event::NocMsg     ? Category::Noc
                                    : Category::Persist;
}

/** Short names ("ag_frozen", "persist_commit", ...). */
const char *eventName(Event e);

/** Short category names ("ag", "agb", "slc", "sb", "llc", "noc",
 *  "persist"). */
const char *categoryName(Category c);

constexpr unsigned numCategories =
    static_cast<unsigned>(Category::NumCategories);

/** One flag per category, indexed by Category. */
using Mask = std::array<bool, numCategories>;

/**
 * Parse the comma-separated categories in @p csv ("ag,slc"); "all" is
 * every category and "" none.  @return false for an unknown name, with
 * a message naming the valid set in @p err (@p out is then untouched).
 */
bool parseCategories(const std::string &csv, Mask *out, std::string *err);

/** Format one record as a "[     cycle] cat.event ..." text line
 *  (flight dumps, tests). */
std::string formatRecord(const Record &r);

/**
 * One System's trace bus: which categories are on, the sinks that see
 * their records, and the flight recorder — a ring of the last records
 * of the enabled categories, kept here so panic paths can reach it
 * without owning a sink.  Used by one thread at a time.
 */
class Tracer
{
  public:
    bool on(Category c) const { return mask_[static_cast<unsigned>(c)]; }
    void setMask(const Mask &mask) { mask_ = mask; }

    /** Register / unregister a sink (not owned).  A sink sees every
     *  record of every enabled category. */
    void addSink(Sink *sink);
    void removeSink(Sink *sink);

    /** Keep the last @p depth records; 0 turns the recorder off. */
    void setFlightRecorderDepth(unsigned depth);

    /** Human-readable tail of the flight ring, oldest first; "" when
     *  the recorder is off or empty.  Dumped by tsoper_panic and
     *  System::dumpState. */
    std::string flightRecorderDump() const;

    /** Hand @p r to the ring and every sink (no category check). */
    void record(const Record &r);

  private:
    Mask mask_{};
    std::vector<Sink *> sinks_;
    std::vector<Record> ring_;
    std::size_t ringNext_ = 0;
    std::size_t ringCount_ = 0;
};

/** What the calling thread is simulating: the running System's tracer
 *  and event queue, or nulls between runs. */
struct Current
{
    Tracer *tracer = nullptr;
    const EventQueue *clock = nullptr;
};

namespace detail
{
/** constinit and trivially destructible, so every access is a plain
 *  thread-pointer-relative load with no TLS-init wrapper call. */
inline constinit thread_local Current current_{};
} // namespace detail

inline const Current &
current()
{
    return detail::current_;
}

/**
 * RAII: binds @p tracer and @p clock to the calling thread for its
 * lifetime.  Emit sites publish to @p tracer; tsoper_warn/tsoper_panic
 * lines carry @p clock's cycle and panics append the flight ring.
 * Scopes nest (the innermost wins).
 */
class Scope
{
  public:
    Scope(Tracer &tracer, const EventQueue &clock)
        : saved_(detail::current_)
    {
        detail::current_ = Current{&tracer, &clock};
    }
    ~Scope() { detail::current_ = saved_; }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Current saved_;
};

/** Is @p c enabled on the thread's running System?  The check every
 *  emit site pays. */
inline bool
on(Category c)
{
    const Tracer *t = detail::current_.tracer;
    return t && t->on(c);
}

/** Emit a duration span (begin..end). */
inline void
span(Event e, CoreId core, Cycle begin, Cycle end, std::uint64_t id,
     std::uint64_t a = 0, std::uint64_t b = 0)
{
    if (on(categoryOf(e)))
        detail::current_.tracer->record(
            Record{e, core, begin, end, id, a, b});
}

/** Emit an instantaneous event. */
inline void
instant(Event e, CoreId core, Cycle when, std::uint64_t id,
        std::uint64_t a = 0, std::uint64_t b = 0)
{
    if (on(categoryOf(e)))
        detail::current_.tracer->record(
            Record{e, core, when, when, id, a, b});
}

/** Emit a counter sample (occupancy, depth). */
inline void
counter(Event e, CoreId core, Cycle when, std::uint64_t value)
{
    if (on(categoryOf(e)))
        detail::current_.tracer->record(
            Record{e, core, when, when, 0, value, 0});
}

/**
 * Audit group tag: globally unique name for a persist group (atomic
 * group, BSP epoch, HW-RP SFR batch).  Engines with per-core local ids
 * compose (core, id); engines with global uids may use them raw.
 */
constexpr std::uint64_t
groupTag(CoreId core, std::uint64_t localId)
{
    return (static_cast<std::uint64_t>(core + 1) << 48) |
           (localId & 0xffffffffffffull);
}

} // namespace tsoper::trace

#endif // TSOPER_SIM_TRACE_HH
