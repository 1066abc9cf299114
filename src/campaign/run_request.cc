#include "campaign/run_request.hh"

#include <cstdio>
#include <exception>

#include "core/recovery.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "sim/trace_sink.hh"
#include "sim/watchdog.hh"
#include "workload/generators.hh"

namespace tsoper::campaign
{

const char *
toString(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok:          return "ok";
      case RunStatus::CheckFailed: return "check-failed";
      case RunStatus::Timeout:     return "timeout";
      case RunStatus::Crashed:     return "crashed";
      case RunStatus::BadRequest:  return "bad-request";
      case RunStatus::Hung:        return "hung";
    }
    return "?";
}

const std::vector<RunStatus> &
allRunStatuses()
{
    static const std::vector<RunStatus> all{
        RunStatus::Ok,      RunStatus::CheckFailed, RunStatus::Timeout,
        RunStatus::Crashed, RunStatus::Hung,        RunStatus::BadRequest};
    return all;
}

Json
RunRequest::toJson() const
{
    Json j = Json::object();
    j.set("id", Json(id))
        .set("engine", Json(engine))
        .set("bench", Json(bench))
        .set("scale", Json(scale))
        .set("seed", Json(seed))
        .set("cores", Json(cores));
    if (agMaxLines)
        j.set("ag_max_lines", Json(agMaxLines));
    if (agbSliceLines)
        j.set("agb_slice_lines", Json(agbSliceLines));
    if (crashAt > 0.0)
        j.set("crash_at", Json(crashAt));
    j.set("check", Json(check));
    // Trace fields only appear when set: an untraced cell's header
    // carries no trace keys.
    if (!traceCategories.empty())
        j.set("trace_categories", Json(traceCategories));
    if (!traceOut.empty())
        j.set("trace_out", Json(traceOut));
    if (auditPersists)
        j.set("audit_persists", Json(true));
    if (!auditFault.empty())
        j.set("audit_fault", Json(auditFault));
    if (flightRecorder)
        j.set("flight_recorder", Json(flightRecorder));
    j.set("max_cycles", Json(maxCycles));
    return j;
}

bool
resolveConfig(const RunRequest &r, SystemConfig *cfg, std::string *err)
{
    // A crash cycle must fit a Cycle.
    constexpr double cycleLimit = 18446744073709551616.0; // 2^64
    const auto reject = [err](const char *what, double got) {
        if (err) {
            char buf[160];
            std::snprintf(buf, sizeof buf, "%s, got %g", what, got);
            *err = buf;
        }
        return false;
    };
    static_assert(maxScale == 1000.0, "the message names the bound");
    if (!validScale(r.scale))
        return reject("scale must be finite and in (0, 1000]", r.scale);
    if (!(r.crashAt >= 0.0 && r.crashAt < cycleLimit))
        return reject("crash-at must be 0 (no crash), a fraction in "
                      "(0, 1] or a cycle in (1, 2^64)",
                      r.crashAt);

    EngineKind engine;
    ProtocolKind protocol;
    if (!engineFromName(r.engine, &engine, &protocol)) {
        if (err)
            *err = "unknown engine: " + r.engine;
        return false;
    }
    *cfg = makeConfig(engine);
    cfg->protocol = protocol; // only differs for baseline-mesi
    cfg->numCores = r.cores;
    if (r.cores > 8) {
        cfg->meshCols = 6;
        cfg->meshRows = (r.cores + cfg->llcBanks + 5) / 6;
    }
    if (r.agMaxLines)
        cfg->agMaxLines = r.agMaxLines;
    if (r.agbSliceLines)
        cfg->agbSliceLines = r.agbSliceLines;
    cfg->recordStores = r.check;
    cfg->seed = r.seed;
    return cfg->check(err);
}

namespace
{

void
fillAudit(RunResult *res, const RecoveryReport &report)
{
    res->recoverySummary = report.summary();
    res->audited = report.audited;
    res->durableLines = report.durableLines;
    res->durableWords = report.durableWords;
    res->bufferRecoveredLines = report.bufferRecoveredLines;
    res->requiredStores = report.consistency.requiredStores;
    if (report.audited && !report.consistency.ok) {
        res->status = RunStatus::CheckFailed;
        res->detail = report.consistency.detail;
    }
}

void
fillTrace(RunResult *res, const trace::TraceSession::Outcome &out)
{
    if (out.audited) {
        res->persistAudited = true;
        res->persistAuditOk = out.audit.ok;
        res->persistAuditDetail = out.audit.detail;
        res->persistCommits = out.audit.commits;
        res->persistEdges = out.audit.edges;
        res->persistGroups = out.audit.groups;
        if (!out.audit.ok && res->status == RunStatus::Ok) {
            res->status = RunStatus::CheckFailed;
            res->detail = out.audit.detail;
        }
    }
    if (!out.perfettoError.empty() && res->status == RunStatus::Ok) {
        res->status = RunStatus::Crashed;
        res->detail = out.perfettoError;
    }
}

} // namespace

RunResult
runOne(const RunRequest &r, const RunHooks &hooks)
{
    RunResult res;
    SystemConfig cfg;
    if (!resolveConfig(r, &cfg, &res.detail))
        return res; // BadRequest: unknown engine or out-of-range knob

    trace::TraceOptions topt;
    topt.categories = r.traceCategories;
    topt.perfettoPath = r.traceOut;
    topt.auditPersists = r.auditPersists;
    topt.auditFault = r.auditFault;
    topt.flightRecorderDepth = r.flightRecorder;
    topt.faultSeed = r.seed;
    // Only TSOPER and STW persist each core's groups strictly in
    // creation order; BSP skips empty epochs and HW-RP interleaves
    // spontaneous persists, so they get the order-graph checks only.
    topt.strictCoreFifo = cfg.engine == EngineKind::Tsoper ||
                          cfg.engine == EngineKind::Stw;
    if (!topt.check(&res.detail))
        return res; // BadRequest: bad trace category, fault or depth

    const Profile *profile = findProfile(r.bench);
    if (!profile) {
        res.detail = "unknown benchmark: " + r.bench;
        return res;
    }

    try {
        const Workload w =
            generate(*profile, cfg.numCores, r.seed, r.scale);
        std::string error;
        if (!validateWorkload(w, &error)) {
            res.detail = "invalid workload: " + error;
            return res; // BadRequest
        }
        res.ops = w.totalOps();
        res.stores = w.totalStores();

        const PersistModel model = cfg.engine == EngineKind::HwRp
                                       ? PersistModel::RelaxedSfr
                                       : PersistModel::StrictTso;

        if (r.crashAt > 0.0) {
            Cycle crashCycle = static_cast<Cycle>(r.crashAt);
            if (r.crashAt <= 1.0) {
                // The timing run yields only its finish cycle; store
                // recording does not change timing, so it is off here.
                SystemConfig timingCfg = cfg;
                timingCfg.recordStores = false;
                System timing(timingCfg, w);
                const Cycle full = timing.run(r.maxCycles, hooks.deadline);
                crashCycle = static_cast<Cycle>(
                    static_cast<double>(full) * r.crashAt);
                res.cycles = full;
                res.drainCycles =
                    timing.stats().get("sys.drain_cycles");
            }
            System sys(cfg, w);
            trace::TraceSession session(sys.tracer(), topt);
            sys.runUntilCrash(crashCycle, hooks.deadline);
            res.crashCycle = crashCycle;
            res.status = RunStatus::Ok;
            fillAudit(&res, recover(sys, model));
            // The checks are prefix-sound (groups the cold stop left
            // incomplete are skipped), so the audit applies to the
            // pre-crash persist stream as well.
            fillTrace(&res, session.finish());
            res.stats = statsToJson(sys.stats());
            if (hooks.onFinished)
                hooks.onFinished(sys);
            return res;
        }

        System sys(cfg, w);
        trace::TraceSession session(sys.tracer(), topt);
        res.cycles = sys.run(r.maxCycles, hooks.deadline);
        res.drainCycles = sys.stats().get("sys.drain_cycles");
        res.status = RunStatus::Ok;
        fillTrace(&res, session.finish());
        if (r.check)
            fillAudit(&res, recover(sys, model));
        res.stats = statsToJson(sys.stats());
        if (hooks.onFinished)
            hooks.onFinished(sys);
        return res;
    } catch (const HungError &e) {
        // The progress watchdog proved a livelock/deadlock; e.what()
        // carries the reason plus the machine-state dump.  Hung is a
        // deterministic verdict (same seed, same livelock), so the
        // runner does not retry it.
        res.status = RunStatus::Hung;
        res.detail = e.what();
        return res;
    } catch (const DeadlineExceeded &e) {
        res.status = RunStatus::Timeout;
        res.detail = e.what();
        return res;
    } catch (const std::exception &e) {
        res.status = RunStatus::Crashed;
        res.detail = e.what();
        return res;
    }
}

} // namespace tsoper::campaign
