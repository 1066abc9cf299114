/**
 * @file
 * Error reporting helpers in the spirit of gem5's logging.hh.
 *
 * panic()  — an internal invariant of the simulator was violated.
 * fatal()  — the user supplied an impossible configuration.
 * warn()   — something is suspicious but the simulation continues.
 *
 * While a System runs on the calling thread (trace::Scope), warn and
 * panic lines start with its cycle ("[     cycle] ") and a panic appends
 * the System's flight-recorder tail.
 */

#ifndef TSOPER_SIM_LOG_HH
#define TSOPER_SIM_LOG_HH

#include <sstream>
#include <string>

namespace tsoper
{

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const char *file, int line, const std::string &msg);

/** Build a message from stream-insertable parts. */
template <typename... Args>
std::string
logFormat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace tsoper

#define tsoper_panic(...) \
    ::tsoper::panicImpl(__FILE__, __LINE__, ::tsoper::logFormat(__VA_ARGS__))

#define tsoper_fatal(...) \
    ::tsoper::fatalImpl(__FILE__, __LINE__, ::tsoper::logFormat(__VA_ARGS__))

#define tsoper_warn(...) \
    ::tsoper::warnImpl(__FILE__, __LINE__, ::tsoper::logFormat(__VA_ARGS__))

/** Invariant check that survives NDEBUG builds. */
#define tsoper_assert(cond, ...)                                           \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::tsoper::panicImpl(__FILE__, __LINE__,                        \
                ::tsoper::logFormat("assertion failed: " #cond " ",       \
                                    ##__VA_ARGS__));                       \
        }                                                                  \
    } while (0)

#endif // TSOPER_SIM_LOG_HH
