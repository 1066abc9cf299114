/**
 * @file
 * Subprocess cell executor: hard isolation for crash campaigns.
 *
 * The in-process executor (runner.cc) is fast but fragile by design:
 * a cell that trips a simulator assert takes the whole sweep down,
 * and its budget is cooperative — checked only between the watchdog's
 * 2 M-event chunks, so a cell stuck inside one event is never stopped.
 * This executor instead fork/execs `tsoper_sim` per cell:
 *
 *  - the RunRequest round-trips through argv (requestToArgv) and the
 *    full RunResult — stats included — comes back through a JSON
 *    result file (`tsoper_sim --result-json=F`), so an isolated cell
 *    loses no fidelity versus an in-process one;
 *  - an optional RLIMIT_AS cap contains runaway memory growth;
 *  - a wall-clock timeout is enforced with SIGKILL plus a blocking
 *    waitpid, so a hung cell is killed and reaped wherever it is stuck;
 *  - failures are captured structurally: exit code (mapped through
 *    tsoper_sim's documented codes), terminating signal name, and a
 *    redacted tail of the child's stderr.
 *
 * Select it with RunnerOptions::isolation = Isolation::Subprocess;
 * the in-process executor stays the default for tests and fast
 * sweeps.
 */

#ifndef TSOPER_CAMPAIGN_SUBPROCESS_HH
#define TSOPER_CAMPAIGN_SUBPROCESS_HH

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/run_request.hh"

namespace tsoper::campaign
{

struct SubprocessOptions
{
    /** Path to the tsoper_sim binary; empty = defaultSimBinary(). */
    std::string simBinary;

    /** Per-attempt wall-clock budget; <= 0 disables the timeout. */
    std::chrono::milliseconds timeout{120000};

    /** RLIMIT_AS cap for the child, MiB; 0 = unlimited.  Leave 0 in
     *  sanitizer builds: ASan reserves terabytes of address space. */
    std::size_t memLimitMb = 0;

    /** Bytes of child stderr retained (the *tail* — the panic message
     *  and backtrace land last). */
    std::size_t stderrTailBytes = 4096;

    /** Extra argv entries appended per spawn; the fault-injection
     *  hook tests use to hand `--selftest=segv` etc. to the child. */
    std::function<std::vector<std::string>(const RunRequest &)> extraArgs;
};

/** RunResult plus the process-level facts the executor observed. */
struct SubprocessOutcome
{
    RunResult result;
    int pid = -1;         ///< Child pid (reaped by the time we return).
    bool timedOut = false;
    double wallMs = 0.0;
};

/**
 * `tsoper_sim` argv for @p r (argv[0] = @p simBinary).  Pure and
 * complete: every field of @p r that affects the run is represented,
 * so child and parent would execute identical RunRequests.
 */
std::vector<std::string> requestToArgv(const RunRequest &r,
                                       const std::string &simBinary);

/**
 * The sibling `tsoper_sim` binary (same directory as the running
 * executable), or plain "tsoper_sim" (PATH lookup) if the executable
 * path cannot be resolved.
 */
std::string defaultSimBinary();

/**
 * Execute @p r in a child process.  Never throws; every failure mode
 * (spawn failure, signal death, timeout, rlimit kill, unparseable
 * result) comes back as a classified RunResult.  The child is always
 * reaped before returning — no orphan survives, timeout included.
 */
SubprocessOutcome runSubprocess(const RunRequest &r,
                                const SubprocessOptions &opt);

} // namespace tsoper::campaign

#endif // TSOPER_CAMPAIGN_SUBPROCESS_HH
