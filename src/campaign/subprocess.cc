#include "campaign/subprocess.hh"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace tsoper::campaign
{

namespace
{

using Clock = std::chrono::steady_clock;

std::string
formatDouble(double v)
{
    // Shortest-ish round-trip formatting: the child must parse back
    // the identical double or the cell would silently change.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

const char *
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGKILL: return "SIGKILL";
      case SIGBUS:  return "SIGBUS";
      case SIGILL:  return "SIGILL";
      case SIGFPE:  return "SIGFPE";
      case SIGTERM: return "SIGTERM";
      case SIGINT:  return "SIGINT";
      default:      return nullptr;
    }
}

std::string
signalString(int sig)
{
    if (const char *name = signalName(sig))
        return name;
    return "signal " + std::to_string(sig);
}

/**
 * Keep only the printable tail of the child's stderr: control bytes
 * (except newline/tab) are replaced so a corrupted child cannot smear
 * escape sequences into the report, and everything before the last
 * @p cap bytes is dropped — the panic message and state dump land
 * last.
 */
std::string
redactTail(std::string raw, std::size_t cap)
{
    for (char &c : raw) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (u < 0x20 && c != '\n' && c != '\t')
            c = '.';
        else if (u == 0x7f)
            c = '.';
    }
    if (cap && raw.size() > cap)
        raw = "..." + raw.substr(raw.size() - cap);
    // Trim a trailing newline so the tail embeds cleanly in JSON.
    while (!raw.empty() && raw.back() == '\n')
        raw.pop_back();
    return raw;
}

std::string
uniqueResultPath()
{
    static std::atomic<unsigned> seq{0};
    const char *tmp = std::getenv("TMPDIR");
    std::string dir = tmp && *tmp ? tmp : "/tmp";
    return dir + "/tsoper_cell_" + std::to_string(::getpid()) + "_" +
           std::to_string(seq.fetch_add(1)) + ".json";
}

/** Map a tsoper_sim exit code (tools/tsoper_sim.cc's documented
 *  codes) to a RunStatus — the fallback classification when the
 *  child died before writing its result file. */
RunStatus
statusFromExitCode(int code, std::string *why)
{
    switch (code) {
      case 0: return RunStatus::Ok;
      case 1: return RunStatus::CheckFailed;
      case 2: *why = "usage error";            return RunStatus::BadRequest;
      case 3: *why = "unknown engine";         return RunStatus::BadRequest;
      case 4: *why = "unknown benchmark";      return RunStatus::BadRequest;
      case 5: *why = "invalid workload";       return RunStatus::BadRequest;
      case 6: *why = "simulation error";       return RunStatus::Crashed;
      case 7: *why = "progress watchdog";      return RunStatus::Hung;
      case 127: *why = "exec failed";          return RunStatus::Crashed;
      default:
        *why = "unexpected exit code " + std::to_string(code);
        return RunStatus::Crashed;
    }
}

} // namespace

std::vector<std::string>
requestToArgv(const RunRequest &r, const std::string &simBinary)
{
    std::vector<std::string> argv;
    argv.push_back(simBinary);
    argv.push_back("--engine=" + r.engine);
    if (!r.traceFile.empty())
        argv.push_back("--trace-file=" + r.traceFile);
    else
        argv.push_back("--bench=" + r.bench);
    argv.push_back("--scale=" + formatDouble(r.scale));
    argv.push_back("--seed=" + std::to_string(r.seed));
    argv.push_back("--cores=" + std::to_string(r.cores));
    if (r.agMaxLines)
        argv.push_back("--ag-max-lines=" + std::to_string(r.agMaxLines));
    if (r.agbSliceLines)
        argv.push_back("--agb-slice-lines=" +
                       std::to_string(r.agbSliceLines));
    if (r.crashAt > 0.0)
        argv.push_back("--crash-at=" + formatDouble(r.crashAt));
    if (r.check)
        argv.push_back("--check");
    if (!r.traceCategories.empty())
        argv.push_back("--trace-categories=" + r.traceCategories);
    if (!r.traceOut.empty())
        argv.push_back("--trace-out=" + r.traceOut);
    if (r.auditPersists)
        argv.push_back("--audit-persists");
    if (!r.auditFault.empty())
        argv.push_back("--audit-fault=" + r.auditFault);
    if (r.flightRecorder)
        argv.push_back("--flight-recorder=" +
                       std::to_string(r.flightRecorder));
    argv.push_back("--max-cycles=" + std::to_string(r.maxCycles));
    return argv;
}

std::string
defaultSimBinary()
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n <= 0)
        return "tsoper_sim";
    buf[n] = '\0';
    std::string path(buf);
    const std::size_t slash = path.rfind('/');
    if (slash == std::string::npos)
        return "tsoper_sim";
    return path.substr(0, slash + 1) + "tsoper_sim";
}

SubprocessOutcome
runSubprocess(const RunRequest &r, const SubprocessOptions &opt)
{
    SubprocessOutcome out;
    const Clock::time_point start = Clock::now();
    const auto elapsedMs = [&start] {
        return std::chrono::duration<double, std::milli>(Clock::now() -
                                                         start)
            .count();
    };
    const auto fail = [&](const std::string &why) {
        out.result.status = RunStatus::Crashed;
        out.result.detail = why;
        out.wallMs = elapsedMs();
        return out;
    };

    const std::string resultPath = uniqueResultPath();
    std::vector<std::string> argv = requestToArgv(
        r, opt.simBinary.empty() ? defaultSimBinary() : opt.simBinary);
    argv.push_back("--result-json=" + resultPath);
    if (opt.extraArgs) {
        std::vector<std::string> extra = opt.extraArgs(r);
        for (std::string &e : extra)
            argv.push_back(std::move(e));
    }

    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (std::string &a : argv)
        cargv.push_back(a.data());
    cargv.push_back(nullptr);

    int errPipe[2];
    if (::pipe(errPipe) != 0)
        return fail(std::string("pipe: ") + std::strerror(errno));

    const pid_t pid = ::fork();
    if (pid < 0) {
        ::close(errPipe[0]);
        ::close(errPipe[1]);
        return fail(std::string("fork: ") + std::strerror(errno));
    }

    if (pid == 0) {
        // Child: cap memory, route stderr into the pipe, silence the
        // banner on stdout, become tsoper_sim.
        if (opt.memLimitMb) {
            const rlim_t bytes =
                static_cast<rlim_t>(opt.memLimitMb) << 20;
            struct rlimit rl{bytes, bytes};
            ::setrlimit(RLIMIT_AS, &rl);
        }
        ::dup2(errPipe[1], STDERR_FILENO);
        ::close(errPipe[0]);
        ::close(errPipe[1]);
        const int devnull = ::open("/dev/null", O_WRONLY);
        if (devnull >= 0) {
            ::dup2(devnull, STDOUT_FILENO);
            ::close(devnull);
        }
        ::execv(cargv[0], cargv.data());
        std::fprintf(stderr, "exec %s: %s\n", cargv[0],
                     std::strerror(errno));
        ::_exit(127);
    }

    // Parent: drain stderr while polling for exit; SIGKILL + blocking
    // reap on timeout so no orphan survives this call.
    out.pid = pid;
    ::close(errPipe[1]);
    ::fcntl(errPipe[0], F_SETFL, O_NONBLOCK);

    std::string rawErr;
    const auto drainPipe = [&] {
        char buf[4096];
        for (;;) {
            const ssize_t got = ::read(errPipe[0], buf, sizeof(buf));
            if (got < 0 && errno == EINTR)
                continue; // a signal mid-read must not drop the tail
            if (got <= 0)
                break;
            rawErr.append(buf, static_cast<std::size_t>(got));
            // Bound memory: keep a generous window above the tail cap.
            const std::size_t keep = opt.stderrTailBytes * 4 + 4096;
            if (rawErr.size() > keep)
                rawErr.erase(0, rawErr.size() - keep);
        }
    };

    // Every waitpid below retries EINTR: a signal landing mid-wait
    // would otherwise leave wstatus garbage and the child unreaped,
    // and the campaign would misclassify the cell from stale bits.
    const auto reapNonBlocking = [&](int *status) {
        pid_t got;
        do {
            got = ::waitpid(pid, status, WNOHANG);
        } while (got < 0 && errno == EINTR);
        return got;
    };
    const auto reapBlocking = [&](int *status) {
        pid_t got;
        do {
            got = ::waitpid(pid, status, 0);
        } while (got < 0 && errno == EINTR);
        return got;
    };

    int wstatus = 0;
    bool exited = false;
    while (!exited) {
        struct pollfd pfd{errPipe[0], POLLIN, 0};
        ::poll(&pfd, 1, 5);
        drainPipe();
        const pid_t got = reapNonBlocking(&wstatus);
        if (got == pid) {
            exited = true;
        } else if (opt.timeout.count() > 0 &&
                   elapsedMs() >
                       static_cast<double>(opt.timeout.count())) {
            out.timedOut = true;
            ::kill(pid, SIGKILL);
            reapBlocking(&wstatus); // blocking reap: no orphan
            exited = true;
        }
    }
    drainPipe();
    ::close(errPipe[0]);
    out.wallMs = elapsedMs();

    RunResult &res = out.result;
    res.stderrTail = redactTail(std::move(rawErr), opt.stderrTailBytes);

    if (out.timedOut) {
        res.status = RunStatus::Timeout;
        res.detail = "exceeded " + std::to_string(opt.timeout.count()) +
                     " ms wall-clock budget; SIGKILLed pid " +
                     std::to_string(pid);
        res.signalName = "SIGKILL";
        ::unlink(resultPath.c_str());
        return out;
    }

    if (WIFSIGNALED(wstatus)) {
        const int sig = WTERMSIG(wstatus);
        res.status = RunStatus::Crashed;
        res.signalName = signalString(sig);
        res.detail = "child killed by " + res.signalName;
        if (!res.stderrTail.empty())
            res.detail += " (stderr tail captured)";
        ::unlink(resultPath.c_str());
        return out;
    }

    const int code = WIFEXITED(wstatus) ? WEXITSTATUS(wstatus) : -1;
    res.exitCode = code;

    // Prefer the child's own result document: it carries the detail,
    // audit numbers and full stats.  Fall back to the exit code when
    // the child died before writing it.
    std::ifstream is(resultPath);
    if (is) {
        std::ostringstream buf;
        buf << is.rdbuf();
        is.close();
        Json doc;
        RunResult parsed;
        std::string err;
        if (Json::parse(buf.str(), &doc, &err) &&
            runResultFromJson(doc, &parsed, &err)) {
            const std::string tail = std::move(res.stderrTail);
            const int exitCode = res.exitCode;
            res = std::move(parsed);
            res.stderrTail = tail;
            res.exitCode = exitCode;
            ::unlink(resultPath.c_str());
            return out;
        }
    }
    ::unlink(resultPath.c_str());

    std::string why;
    res.status = statusFromExitCode(code, &why);
    res.detail = "exit code " + std::to_string(code);
    if (!why.empty())
        res.detail += " (" + why + ")";
    if (res.status != RunStatus::Ok && !res.stderrTail.empty())
        res.detail += "; stderr: " + res.stderrTail;
    if (res.status == RunStatus::Ok) {
        // Exit 0 without a parseable result file still means the run
        // finished, but nothing can be aggregated — classify as
        // crashed so the sweep doesn't silently count an empty cell.
        res.status = RunStatus::Crashed;
        res.detail = "exit code 0 but no parseable result file";
    }
    return out;
}

} // namespace tsoper::campaign
