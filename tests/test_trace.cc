/**
 * @file
 * Tests for the structured trace bus (sim/trace.hh), its stock sinks
 * (sim/trace_sink.hh), and the end-to-end --trace-out/--audit-persists
 * plumbing through campaign::runOne.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "campaign/run_request.hh"
#include "core/system.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/log.hh"
#include "sim/trace.hh"
#include "sim/trace_sink.hh"
#include "workload/generators.hh"

using namespace tsoper;

namespace
{

/** A tracer bound to the test's thread, the way System::run binds its
 *  own; each test gets a fresh one. */
struct TraceFixture : public ::testing::Test
{
    EventQueue clock;
    trace::Tracer tracer;
    trace::Scope scope{tracer, clock};

    void
    enable(const std::string &csv)
    {
        trace::Mask mask;
        std::string err;
        ASSERT_TRUE(trace::parseCategories(csv, &mask, &err)) << err;
        tracer.setMask(mask);
    }
};

std::string
tmpPath(const char *stem)
{
    return testing::TempDir() + stem;
}

std::string
slurp(const std::string &path)
{
    std::ifstream is(path);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

trace::Record
persistRec(trace::Event e, CoreId core, Cycle cycle, std::uint64_t id,
           std::uint64_t a = 0)
{
    return trace::Record{e, core, cycle, cycle, id, a, 0};
}

/** The enabled categories of the thread's tracer, canonical csv. */
std::string
enabledCsv()
{
    std::string csv;
    for (unsigned c = 0; c < trace::numCategories; ++c) {
        if (!trace::on(static_cast<trace::Category>(c)))
            continue;
        if (!csv.empty())
            csv += ',';
        csv += trace::categoryName(static_cast<trace::Category>(c));
    }
    return csv;
}

} // namespace

// --------------------------------------------------------------------
// Bus basics: category mask, csv parsing, flight ring, thread scope.
// --------------------------------------------------------------------

TEST_F(TraceFixture, CategoriesCsvRoundTrip)
{
    enable("slc,ag");
    EXPECT_TRUE(trace::on(trace::Category::Ag));
    EXPECT_TRUE(trace::on(trace::Category::Slc));
    EXPECT_FALSE(trace::on(trace::Category::Persist));
    EXPECT_EQ(enabledCsv(), "ag,slc"); // canonical enum order
    enable("");
    EXPECT_EQ(enabledCsv(), "");
    enable("all");
    EXPECT_EQ(enabledCsv(), "ag,agb,slc,sb,llc,noc,persist");
}

TEST_F(TraceFixture, UnknownCategoryIsFatal)
{
    // Fatal to the request, not the process: the parse fails with the
    // valid set, leaves its output alone, and runOne refuses the run.
    trace::Mask mask{};
    mask[0] = true;
    std::string err;
    EXPECT_FALSE(trace::parseCategories("ag,bogus", &mask, &err));
    EXPECT_NE(err.find("'bogus'"), std::string::npos) << err;
    EXPECT_NE(err.find("valid: all,ag,agb,slc,sb,llc,noc,persist"),
              std::string::npos)
        << err;
    EXPECT_TRUE(mask[0]);
    EXPECT_FALSE(mask[1]);

    campaign::RunRequest r;
    r.bench = "dedup";
    r.scale = 0.05;
    r.traceCategories = "bogus";
    campaign::RunResult res = campaign::runOne(r);
    EXPECT_EQ(res.status, campaign::RunStatus::BadRequest);
    EXPECT_NE(res.detail.find("valid:"), std::string::npos) << res.detail;
    EXPECT_TRUE(res.stats.isNull()); // no System was built

    r.traceCategories.clear();
    r.auditPersists = true;
    r.auditFault = "bogus";
    res = campaign::runOne(r);
    EXPECT_EQ(res.status, campaign::RunStatus::BadRequest);
    EXPECT_NE(res.detail.find("valid: reorder"), std::string::npos)
        << res.detail;
}

TEST_F(TraceFixture, FlightRecorderKeepsLastN)
{
    enable("persist");
    tracer.setFlightRecorderDepth(4);
    for (Cycle c = 1; c <= 6; ++c)
        trace::instant(trace::Event::PersistCommit, 0, c * 10,
                       /*line=*/c);
    const std::string dump = tracer.flightRecorderDump();
    EXPECT_NE(dump.find("last 4 trace records"), std::string::npos);
    // Records 1 and 2 were overwritten; 3..6 survive, oldest first.
    EXPECT_EQ(dump.find("id=0x1 "), std::string::npos);
    EXPECT_EQ(dump.find("id=0x2 "), std::string::npos);
    const std::size_t p3 = dump.find("id=0x3");
    const std::size_t p6 = dump.find("id=0x6");
    EXPECT_NE(p3, std::string::npos);
    EXPECT_NE(p6, std::string::npos);
    EXPECT_LT(p3, p6);
    EXPECT_NE(dump.find("\n  [        60] persist.persist_commit core=0 "
                        "id=0x6 a=0 b=0"),
              std::string::npos)
        << dump;
    tracer.setFlightRecorderDepth(0);
    EXPECT_EQ(tracer.flightRecorderDump(), "");
}

TEST_F(TraceFixture, PanicCarriesFlightRecorderTail)
{
    enable("persist");
    tracer.setFlightRecorderDepth(8);
    trace::instant(trace::Event::PersistCommit, 1, 77, /*line=*/0xabc);
    clock.schedule(42, [] { tsoper_panic("boom in test"); });
    try {
        clock.run();
        FAIL() << "panic must throw";
    } catch (const std::logic_error &e) {
        const std::string what = e.what();
        // The bound clock stamps the line with the panic's cycle.
        EXPECT_EQ(what.rfind("[        42] panic: boom in test", 0), 0u)
            << what;
        EXPECT_NE(what.find("flight recorder"), std::string::npos);
        EXPECT_NE(what.find("id=0xabc"), std::string::npos);
    }
}

TEST_F(TraceFixture, DisabledCategoryCostsNothing)
{
    EXPECT_EQ(enabledCsv(), ""); // a new tracer records nothing
    tracer.setFlightRecorderDepth(4);
    trace::instant(trace::Event::PersistCommit, 0, 5, 1);
    EXPECT_EQ(tracer.flightRecorderDump(), "");

    // A thread with no System running has no tracer at all.
    enable("all");
    bool sawTracer = true;
    std::thread([&] {
        sawTracer = trace::current().tracer != nullptr ||
                    trace::on(trace::Category::Persist);
        trace::instant(trace::Event::PersistCommit, 0, 6, 2);
    }).join();
    EXPECT_FALSE(sawTracer);
    EXPECT_EQ(tracer.flightRecorderDump(), "");
}

TEST_F(TraceFixture, GroupTagSeparatesCores)
{
    EXPECT_NE(trace::groupTag(0, 1), trace::groupTag(1, 1));
    EXPECT_EQ(trace::groupTag(2, 7) & 0xffffffffffffull, 7ull);
}

namespace
{

/** Counts and digests (FNV-1a) every record it sees, and remembers
 *  their categories. */
struct DigestSink : public trace::Sink
{
    std::uint64_t records = 0;
    std::uint64_t digest = 0xcbf29ce484222325ull;
    std::set<std::string> categories;

    void
    record(const trace::Record &r) override
    {
        ++records;
        for (std::uint64_t v : {static_cast<std::uint64_t>(r.event),
                                static_cast<std::uint64_t>(r.core),
                                r.begin, r.end, r.id, r.a, r.b})
            digest = (digest ^ v) * 0x100000001b3ull;
        categories.insert(trace::categoryName(trace::categoryOf(r.event)));
    }
};

/** One traced System: @p categories on, a ring of @p depth. */
struct TracedCell
{
    std::string engine;
    std::string bench;
    std::string categories;
    unsigned depth;
    DigestSink sink;
    std::string ring;

    void
    run()
    {
        campaign::RunRequest r;
        r.engine = engine;
        r.bench = bench;
        r.scale = 0.05;
        SystemConfig cfg;
        std::string err;
        ASSERT_TRUE(campaign::resolveConfig(r, &cfg, &err)) << err;
        const Workload w = generateByName(bench, cfg.numCores, 1, 0.05);
        System sys(cfg, w);
        trace::Mask mask;
        ASSERT_TRUE(trace::parseCategories(categories, &mask, &err));
        sys.tracer().setMask(mask);
        sys.tracer().addSink(&sink);
        sys.tracer().setFlightRecorderDepth(depth);
        sys.run();
        ring = sys.tracer().flightRecorderDump();
    }
};

} // namespace

TEST_F(TraceFixture, ConcurrentSystemsRecordOnlyTheirOwnRecords)
{
    // Two Systems on two threads, different categories and ring
    // depths: each tracer must see exactly what it sees running alone.
    TracedCell alone[2] = {{"tsoper", "dedup", "persist", 8, {}, {}},
                           {"stw", "radix", "slc,noc", 32, {}, {}}};
    TracedCell together[2] = {alone[0], alone[1]};
    for (TracedCell &c : alone)
        c.run();
    {
        std::jthread other([&] { together[1].run(); });
        together[0].run();
    }

    const std::set<std::string> persistOnly{"persist"};
    const std::set<std::string> slcNoc{"noc", "slc"};
    EXPECT_EQ(together[0].sink.categories, persistOnly);
    EXPECT_EQ(together[1].sink.categories, slcNoc);
    for (int i = 0; i < 2; ++i) {
        EXPECT_GT(together[i].sink.records, 0u);
        EXPECT_EQ(together[i].sink.records, alone[i].sink.records) << i;
        EXPECT_EQ(together[i].sink.digest, alone[i].sink.digest) << i;
        EXPECT_EQ(together[i].ring, alone[i].ring) << i;
    }
    EXPECT_NE(together[0].ring.find("last 8 trace records"),
              std::string::npos);
    EXPECT_EQ(together[0].ring.find(" slc."), std::string::npos);
    EXPECT_NE(together[1].ring.find("last 32 trace records"),
              std::string::npos);
    EXPECT_EQ(together[1].ring.find(" persist."), std::string::npos);
    // Neither run left anything on this thread's own tracer.
    EXPECT_EQ(tracer.flightRecorderDump(), "");
}

// --------------------------------------------------------------------
// AuditSink: each check must reject its violation and pass clean logs.
// --------------------------------------------------------------------

TEST(AuditSink, CleanLogPasses)
{
    trace::AuditSink audit;
    const std::uint64_t g1 = trace::groupTag(0, 1);
    const std::uint64_t g2 = trace::groupTag(0, 2);
    audit.record(persistRec(trace::Event::PersistIssue, 0, 10, 0xA0, g1));
    audit.record(persistRec(trace::Event::PersistCommit, 0, 20, 0xA0, g1));
    audit.record(persistRec(trace::Event::GroupDurable, 0, 20, g1, 1));
    audit.record(persistRec(trace::Event::PersistIssue, 0, 30, 0xA0, g2));
    audit.record(persistRec(trace::Event::PersistCommit, 0, 40, 0xA0, g2));
    audit.record(persistRec(trace::Event::GroupDurable, 0, 40, g2, 1));
    audit.record(persistRec(trace::Event::PbEdge, 0, 15, g1, g2));
    audit.setStrictCoreFifo(true);
    const trace::AuditResult res = audit.check();
    EXPECT_TRUE(res.ok) << res.detail;
    EXPECT_EQ(res.commits, 2u);
    EXPECT_EQ(res.groups, 2u);
    EXPECT_EQ(res.edges, 1u);
}

TEST(AuditSink, SameAddressFifoViolation)
{
    trace::AuditSink audit;
    const std::uint64_t g1 = trace::groupTag(0, 1);
    const std::uint64_t g2 = trace::groupTag(1, 1);
    audit.record(persistRec(trace::Event::PersistIssue, 0, 10, 0xA0, g1));
    audit.record(persistRec(trace::Event::PersistIssue, 1, 12, 0xA0, g2));
    // g2's commit arrives first: the oldest pending issue is g1's.
    audit.record(persistRec(trace::Event::PersistCommit, 1, 20, 0xA0, g2));
    const trace::AuditResult res = audit.check();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.detail.find("same-address FIFO violated"),
              std::string::npos);
}

TEST(AuditSink, GroupAtomicityViolation)
{
    trace::AuditSink audit;
    const std::uint64_t g1 = trace::groupTag(0, 1);
    audit.record(persistRec(trace::Event::PersistIssue, 0, 10, 0xA0, g1));
    audit.record(persistRec(trace::Event::PersistIssue, 0, 10, 0xB0, g1));
    audit.record(persistRec(trace::Event::PersistCommit, 0, 20, 0xA0, g1));
    audit.record(persistRec(trace::Event::GroupDurable, 0, 20, g1, 2));
    // A member committing after its group is sealed breaks atomicity.
    audit.record(persistRec(trace::Event::PersistCommit, 0, 30, 0xB0, g1));
    const trace::AuditResult res = audit.check();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.detail.find("group atomicity violated"),
              std::string::npos);
}

TEST(AuditSink, PbEdgeViolation)
{
    trace::AuditSink audit;
    const std::uint64_t g1 = trace::groupTag(0, 1);
    const std::uint64_t g2 = trace::groupTag(1, 1);
    audit.record(persistRec(trace::Event::PbEdge, 0, 5, g1, g2));
    audit.record(persistRec(trace::Event::GroupDurable, 1, 10, g2, 1));
    audit.record(persistRec(trace::Event::GroupDurable, 0, 20, g1, 1));
    const trace::AuditResult res = audit.check();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.detail.find("pb-edge violated"), std::string::npos);
}

TEST(AuditSink, PbEdgeWithPendingGroupIsLegal)
{
    // A destination group the run never finished persisting cannot
    // violate the edge (crash runs truncate the log here).
    trace::AuditSink audit;
    const std::uint64_t g1 = trace::groupTag(0, 1);
    const std::uint64_t g2 = trace::groupTag(1, 1);
    audit.record(persistRec(trace::Event::PbEdge, 0, 5, g1, g2));
    audit.record(persistRec(trace::Event::GroupDurable, 0, 20, g1, 1));
    EXPECT_TRUE(audit.check().ok);
}

TEST(AuditSink, PerCoreFifoViolation)
{
    trace::AuditSink audit;
    audit.setStrictCoreFifo(true);
    audit.record(persistRec(trace::Event::GroupDurable, 0, 10,
                            trace::groupTag(0, 2), 1));
    audit.record(persistRec(trace::Event::GroupDurable, 0, 20,
                            trace::groupTag(0, 1), 1));
    const trace::AuditResult res = audit.check();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.detail.find("per-core group FIFO violated"),
              std::string::npos);
}

TEST(AuditSink, InjectedReorderFaultIsCaught)
{
    trace::AuditSink audit;
    const std::uint64_t g1 = trace::groupTag(0, 1);
    const std::uint64_t g2 = trace::groupTag(1, 1);
    audit.record(persistRec(trace::Event::PbEdge, 0, 5, g1, g2));
    audit.record(persistRec(trace::Event::GroupDurable, 0, 10, g1, 1));
    audit.record(persistRec(trace::Event::GroupDurable, 1, 30, g2, 1));
    EXPECT_TRUE(audit.check().ok);
    ASSERT_TRUE(audit.injectReorderFault(/*seed=*/7));
    const trace::AuditResult res = audit.check();
    EXPECT_FALSE(res.ok);
    EXPECT_NE(res.detail.find("pb-edge violated"), std::string::npos);
}

// --------------------------------------------------------------------
// End-to-end: runOne with tracing — the same path as
//   tsoper_sim --trace-out=F --audit-persists.
// --------------------------------------------------------------------

namespace
{

campaign::RunRequest
smallRun(const std::string &engine)
{
    campaign::RunRequest r;
    r.engine = engine;
    r.bench = "dedup";
    r.scale = 0.05;
    r.seed = 1;
    r.cores = 4;
    return r;
}

} // namespace

TEST_F(TraceFixture, PerfettoExportParsesAndHasSpansAndCounters)
{
    const std::string path = tmpPath("trace_out.json");
    campaign::RunRequest r = smallRun("tsoper");
    r.traceCategories = "ag,agb,persist";
    r.traceOut = path;
    r.auditPersists = true;
    const campaign::RunResult res = campaign::runOne(r);
    ASSERT_EQ(res.status, campaign::RunStatus::Ok) << res.detail;
    ASSERT_TRUE(res.persistAudited);
    EXPECT_TRUE(res.persistAuditOk) << res.persistAuditDetail;
    EXPECT_GT(res.persistCommits, 0u);
    EXPECT_GT(res.persistGroups, 0u);

    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(slurp(path), &doc, &err)) << err;
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    bool sawAgSpan = false, sawOccupancy = false, sawCoreTrack = false;
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json &e = events->at(i);
        const Json *ph = e.find("ph");
        const Json *name = e.find("name");
        if (!ph || !name)
            continue;
        if (ph->asString() == "X" && name->asString() == "ag_retired") {
            sawAgSpan = true;
            EXPECT_NE(e.find("dur"), nullptr);
        }
        if (ph->asString() == "C" &&
            name->asString() == "agb_occupancy")
            sawOccupancy = true;
        if (ph->asString() == "M" && name->asString() == "thread_name")
            sawCoreTrack = true;
    }
    EXPECT_TRUE(sawAgSpan);
    EXPECT_TRUE(sawOccupancy);
    EXPECT_TRUE(sawCoreTrack);
    std::remove(path.c_str());
}

TEST_F(TraceFixture, PersistAuditPassesOnEveryEngine)
{
    for (const char *engine :
         {"tsoper", "stw", "bsp", "bsp-slc", "bsp-slc-agb", "hwrp"}) {
        campaign::RunRequest r = smallRun(engine);
        r.auditPersists = true;
        const campaign::RunResult res = campaign::runOne(r);
        ASSERT_EQ(res.status, campaign::RunStatus::Ok)
            << engine << ": " << res.detail;
        ASSERT_TRUE(res.persistAudited) << engine;
        EXPECT_TRUE(res.persistAuditOk)
            << engine << ": " << res.persistAuditDetail;
        EXPECT_GT(res.persistCommits, 0u) << engine;
        EXPECT_GT(res.persistGroups, 0u) << engine;
    }
}

TEST_F(TraceFixture, BspEmptyEpochsCarryPersistOrderForward)
{
    // radix at scale 0.1 closes BSP epochs whose every line was
    // already flushed by eviction (pending == 0): such epochs have no
    // durable point, and their persist-before deps must transfer to
    // the core's next epoch instead of evaporating.  This shape once
    // slipped a cross-core reorder past the audit.
    campaign::RunRequest r = smallRun("bsp");
    r.bench = "radix";
    r.scale = 0.1;
    r.cores = 8;
    r.auditPersists = true;
    const campaign::RunResult res = campaign::runOne(r);
    ASSERT_EQ(res.status, campaign::RunStatus::Ok) << res.detail;
    ASSERT_TRUE(res.persistAudited);
    EXPECT_TRUE(res.persistAuditOk) << res.persistAuditDetail;
    EXPECT_GT(res.persistEdges, 0u);
}

TEST_F(TraceFixture, InjectedFaultFailsTheRun)
{
    // ocean_cp shares lines across cores, so the log carries pb-edges
    // for the preferred (pinpointed) corruption.
    campaign::RunRequest r = smallRun("tsoper");
    r.bench = "ocean_cp";
    r.auditPersists = true;
    r.auditFault = "reorder";
    const campaign::RunResult res = campaign::runOne(r);
    EXPECT_EQ(res.status, campaign::RunStatus::CheckFailed);
    ASSERT_TRUE(res.persistAudited);
    EXPECT_FALSE(res.persistAuditOk);
    EXPECT_NE(res.detail.find("violated"), std::string::npos)
        << res.detail;
}

TEST_F(TraceFixture, CrashRunKeepsTraceAndPrefixAudit)
{
    const std::string path = tmpPath("trace_crash.json");
    campaign::RunRequest r = smallRun("tsoper");
    r.crashAt = 0.5;
    r.check = true;
    r.traceOut = path;
    r.auditPersists = true;
    const campaign::RunResult res = campaign::runOne(r);
    ASSERT_EQ(res.status, campaign::RunStatus::Ok) << res.detail;
    EXPECT_TRUE(res.persistAudited);
    EXPECT_TRUE(res.persistAuditOk) << res.persistAuditDetail;
    Json doc;
    std::string err;
    ASSERT_TRUE(Json::parse(slurp(path), &doc, &err)) << err;
    std::remove(path.c_str());
}

TEST_F(TraceFixture, RunRequestTraceFieldsRoundTripJson)
{
    campaign::RunRequest r = smallRun("stw");
    r.traceCategories = "ag,persist";
    r.traceOut = "/tmp/x.json";
    r.auditPersists = true;
    r.auditFault = "reorder";
    r.flightRecorder = 64;
    const Json j = r.toJson();
    EXPECT_EQ(j["trace_categories"].asString(), "ag,persist");
    EXPECT_EQ(j["trace_out"].asString(), "/tmp/x.json");
    EXPECT_TRUE(j["audit_persists"].asBool());
    EXPECT_EQ(j["audit_fault"].asString(), "reorder");
    EXPECT_EQ(j["flight_recorder"].asUint(), 64u);
    // A request without trace fields serializes without the keys.
    const campaign::RunRequest plain = smallRun("stw");
    EXPECT_EQ(plain.toJson().find("trace_categories"), nullptr);
    EXPECT_EQ(plain.toJson().find("audit_persists"), nullptr);
}
