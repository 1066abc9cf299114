#include "campaign/run_request.hh"

#include <exception>

#include "core/recovery.hh"
#include "core/system.hh"
#include "sim/stats_json.hh"
#include "sim/trace_sink.hh"
#include "sim/watchdog.hh"
#include "workload/generators.hh"
#include "workload/trace_io.hh"

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

bool
runStatusFromName(const std::string &name, RunStatus *out)
{
    for (RunStatus s : allRunStatuses()) {
        if (name == toString(s)) {
            *out = s;
            return true;
        }
    }
    return false;
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
    if (!traceFile.empty())
        j.set("trace", Json(traceFile));
    if (agMaxLines)
        j.set("ag_max_lines", Json(agMaxLines));
    if (agbSliceLines)
        j.set("agb_slice_lines", Json(agbSliceLines));
    if (crashAt > 0.0)
        j.set("crash_at", Json(crashAt));
    j.set("check", Json(check));
    // Trace fields only appear when set, so journals written before the
    // tracing layer still round-trip equal.
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

RunRequest
runRequestFromJson(const Json &j)
{
    RunRequest r;
    if (const Json *v = j.find("id"); v && v->isString())
        r.id = v->asString();
    if (const Json *v = j.find("engine"); v && v->isString())
        r.engine = v->asString();
    if (const Json *v = j.find("bench"); v && v->isString())
        r.bench = v->asString();
    if (const Json *v = j.find("trace"); v && v->isString())
        r.traceFile = v->asString();
    if (const Json *v = j.find("scale"); v && v->isNumber())
        r.scale = v->asDouble();
    if (const Json *v = j.find("seed"); v && v->isNumber())
        r.seed = v->asUint();
    if (const Json *v = j.find("cores"); v && v->isNumber())
        r.cores = static_cast<unsigned>(v->asUint());
    if (const Json *v = j.find("ag_max_lines"); v && v->isNumber())
        r.agMaxLines = static_cast<unsigned>(v->asUint());
    if (const Json *v = j.find("agb_slice_lines"); v && v->isNumber())
        r.agbSliceLines = static_cast<unsigned>(v->asUint());
    if (const Json *v = j.find("crash_at"); v && v->isNumber())
        r.crashAt = v->asDouble();
    if (const Json *v = j.find("check"); v && v->isBool())
        r.check = v->asBool();
    if (const Json *v = j.find("trace_categories"); v && v->isString())
        r.traceCategories = v->asString();
    if (const Json *v = j.find("trace_out"); v && v->isString())
        r.traceOut = v->asString();
    if (const Json *v = j.find("audit_persists"); v && v->isBool())
        r.auditPersists = v->asBool();
    if (const Json *v = j.find("audit_fault"); v && v->isString())
        r.auditFault = v->asString();
    if (const Json *v = j.find("flight_recorder"); v && v->isNumber())
        r.flightRecorder = static_cast<unsigned>(v->asUint());
    if (const Json *v = j.find("max_cycles"); v && v->isNumber())
        r.maxCycles = v->asUint();
    return r;
}

Json
runResultToJson(const RunResult &res)
{
    Json j = Json::object();
    j.set("status", Json(toString(res.status)));
    if (!res.detail.empty())
        j.set("detail", Json(res.detail));
    j.set("cycles", Json(res.cycles))
        .set("drain_cycles", Json(res.drainCycles));
    if (res.crashCycle)
        j.set("crash_cycle", Json(res.crashCycle));
    j.set("ops", Json(res.ops)).set("stores", Json(res.stores));
    if (!res.recoverySummary.empty())
        j.set("recovery_summary", Json(res.recoverySummary));
    if (res.audited) {
        Json audit = Json::object();
        audit.set("durable_lines", Json(res.durableLines))
            .set("durable_words", Json(res.durableWords))
            .set("buffer_recovered_lines", Json(res.bufferRecoveredLines))
            .set("required_stores", Json(res.requiredStores));
        j.set("audit", std::move(audit));
    }
    if (res.persistAudited) {
        Json audit = Json::object();
        audit.set("ok", Json(res.persistAuditOk));
        if (!res.persistAuditDetail.empty())
            audit.set("detail", Json(res.persistAuditDetail));
        audit.set("commits", Json(res.persistCommits))
            .set("edges", Json(res.persistEdges))
            .set("groups", Json(res.persistGroups));
        j.set("persist_audit", std::move(audit));
    }
    if (res.exitCode != -1)
        j.set("exit_code", Json(res.exitCode));
    if (!res.signalName.empty())
        j.set("signal", Json(res.signalName));
    if (!res.stderrTail.empty())
        j.set("stderr_tail", Json(res.stderrTail));
    j.set("stats", res.stats);
    return j;
}

bool
runResultFromJson(const Json &j, RunResult *out, std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "result document is not an object";
        return false;
    }
    const Json *status = j.find("status");
    if (!status || !status->isString() ||
        !runStatusFromName(status->asString(), &out->status)) {
        if (err)
            *err = "result document has no valid status";
        return false;
    }
    if (const Json *v = j.find("detail"); v && v->isString())
        out->detail = v->asString();
    if (const Json *v = j.find("cycles"); v && v->isNumber())
        out->cycles = v->asUint();
    if (const Json *v = j.find("drain_cycles"); v && v->isNumber())
        out->drainCycles = v->asUint();
    if (const Json *v = j.find("crash_cycle"); v && v->isNumber())
        out->crashCycle = v->asUint();
    if (const Json *v = j.find("ops"); v && v->isNumber())
        out->ops = v->asUint();
    if (const Json *v = j.find("stores"); v && v->isNumber())
        out->stores = v->asUint();
    if (const Json *v = j.find("recovery_summary"); v && v->isString())
        out->recoverySummary = v->asString();
    if (const Json *audit = j.find("audit"); audit && audit->isObject()) {
        out->audited = true;
        if (const Json *v = audit->find("durable_lines");
            v && v->isNumber())
            out->durableLines = v->asUint();
        if (const Json *v = audit->find("durable_words");
            v && v->isNumber())
            out->durableWords = v->asUint();
        if (const Json *v = audit->find("buffer_recovered_lines");
            v && v->isNumber())
            out->bufferRecoveredLines = v->asUint();
        if (const Json *v = audit->find("required_stores");
            v && v->isNumber())
            out->requiredStores = v->asUint();
    }
    if (const Json *audit = j.find("persist_audit");
        audit && audit->isObject()) {
        out->persistAudited = true;
        if (const Json *v = audit->find("ok"); v && v->isBool())
            out->persistAuditOk = v->asBool();
        if (const Json *v = audit->find("detail"); v && v->isString())
            out->persistAuditDetail = v->asString();
        if (const Json *v = audit->find("commits"); v && v->isNumber())
            out->persistCommits = v->asUint();
        if (const Json *v = audit->find("edges"); v && v->isNumber())
            out->persistEdges = v->asUint();
        if (const Json *v = audit->find("groups"); v && v->isNumber())
            out->persistGroups = v->asUint();
    }
    if (const Json *v = j.find("exit_code"); v && v->isNumber())
        out->exitCode = static_cast<int>(v->asInt());
    if (const Json *v = j.find("signal"); v && v->isString())
        out->signalName = v->asString();
    if (const Json *v = j.find("stderr_tail"); v && v->isString())
        out->stderrTail = v->asString();
    if (const Json *v = j.find("stats"))
        out->stats = *v;
    return true;
}

bool
resolveConfig(const RunRequest &r, SystemConfig *cfg, std::string *err)
{
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
    return true;
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
        return res; // BadRequest: unknown engine

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
        return res; // BadRequest: unknown trace category or audit fault

    if (r.traceFile.empty() && !findProfile(r.bench)) {
        res.detail = "unknown benchmark: " + r.bench;
        return res;
    }

    Workload w;
    try {
        w = r.traceFile.empty()
                ? generateByName(r.bench, cfg.numCores, r.seed, r.scale)
                : loadWorkloadFile(r.traceFile);
    } catch (const std::exception &e) {
        res.detail = e.what(); // BadRequest: workload did not build
        return res;
    }
    std::string error;
    if (!validateWorkload(w, &error)) {
        res.detail = "invalid workload: " + error;
        return res;
    }
    res.ops = w.totalOps();
    res.stores = w.totalStores();

    try {
        const PersistModel model = cfg.engine == EngineKind::HwRp
                                       ? PersistModel::RelaxedSfr
                                       : PersistModel::StrictTso;

        if (r.crashAt > 0.0) {
            Cycle crashCycle = static_cast<Cycle>(r.crashAt);
            if (r.crashAt <= 1.0) {
                System timing(cfg, w);
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
