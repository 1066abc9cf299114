#include "sim/log.hh"

#include <cstdio>
#include <stdexcept>

#include "sim/event_queue.hh"
#include "sim/trace.hh"

namespace tsoper
{

namespace
{

/** "[     cycle] " when a System runs on this thread, else "". */
std::string
cyclePrefix()
{
    const EventQueue *clock = trace::current().clock;
    if (!clock)
        return {};
    char buf[32];
    std::snprintf(buf, sizeof(buf), "[%10llu] ",
                  static_cast<unsigned long long>(clock->now()));
    return buf;
}

} // namespace

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::string full = cyclePrefix() + "panic: " + msg + " (" + file +
                       ":" + std::to_string(line) + ")";
    if (const trace::Tracer *t = trace::current().tracer)
        if (const std::string tail = t->flightRecorderDump(); !tail.empty())
            full += "\n" + tail;
    std::fprintf(stderr, "%s\n", full.c_str());
    throw std::logic_error(full);
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::string full = std::string("fatal: ") + msg + " (" + file + ":" +
                       std::to_string(line) + ")";
    std::fprintf(stderr, "%s\n", full.c_str());
    throw std::runtime_error(full);
}

void
warnImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "%swarn: %s (%s:%d)\n", cyclePrefix().c_str(),
                 msg.c_str(), file, line);
}

} // namespace tsoper
