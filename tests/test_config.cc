/** @file Configuration validation and preset tests. */

#include <gtest/gtest.h>

#include <sstream>

#include "core/system.hh"
#include "sim/config.hh"
#include "workload/generators.hh"

using namespace tsoper;

TEST(Config, DefaultsAreValid)
{
    SystemConfig cfg;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, PresetsMatchEngineRequirements)
{
    for (EngineKind e :
         {EngineKind::None, EngineKind::Tsoper, EngineKind::Stw,
          EngineKind::Bsp, EngineKind::BspSlc, EngineKind::BspSlcAgb,
          EngineKind::HwRp}) {
        const SystemConfig cfg = makeConfig(e);
        EXPECT_NO_THROW(cfg.validate()) << toString(e);
        EXPECT_EQ(cfg.engine, e);
    }
    EXPECT_EQ(makeConfig(EngineKind::Bsp).protocol, ProtocolKind::Mesi);
    EXPECT_EQ(makeConfig(EngineKind::Tsoper).protocol, ProtocolKind::Slc);
    EXPECT_TRUE(makeConfig(EngineKind::BspSlcAgb).agbUnbounded);
    EXPECT_FALSE(makeConfig(EngineKind::Tsoper).agbUnbounded);
}

TEST(Config, RejectsMismatchedProtocol)
{
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.protocol = ProtocolKind::Mesi;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    SystemConfig bsp = makeConfig(EngineKind::Bsp);
    bsp.protocol = ProtocolKind::Slc;
    EXPECT_THROW(bsp.validate(), std::runtime_error);

    SystemConfig hwrp = makeConfig(EngineKind::HwRp);
    hwrp.protocol = ProtocolKind::Mesi;
    EXPECT_THROW(hwrp.validate(), std::runtime_error);
}

TEST(Config, RejectsOversizedAtomicGroups)
{
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.agMaxLines = cfg.agbSliceLines * cfg.nvmRanks + 1;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
    // Unbounded AGBs accept anything.
    cfg.agbUnbounded = true;
    EXPECT_NO_THROW(cfg.validate());
}

TEST(Config, RejectsNonPowerOfTwoGeometry)
{
    SystemConfig cfg;
    cfg.privSets = 1000;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    SystemConfig cfg2;
    cfg2.llcBanks = 6;
    EXPECT_THROW(cfg2.validate(), std::runtime_error);
}

TEST(Config, RejectsTooSmallMesh)
{
    SystemConfig cfg;
    cfg.meshCols = 2;
    cfg.meshRows = 2;
    EXPECT_THROW(cfg.validate(), std::runtime_error);
}

TEST(Config, RejectsZeroCoresOrBuffers)
{
    SystemConfig cfg;
    cfg.numCores = 0;
    EXPECT_THROW(cfg.validate(), std::runtime_error);

    SystemConfig cfg2;
    cfg2.storeBufferEntries = 0;
    EXPECT_THROW(cfg2.validate(), std::runtime_error);
}

TEST(Config, LlcLatencyMayEqualHopLatency)
{
    // The LLC access latency need not cover a NoC hop each way.
    SystemConfig cfg = makeConfig(EngineKind::Tsoper);
    cfg.llcLatency = cfg.hopLatency;
    EXPECT_NO_THROW(cfg.validate());
    const Workload w = generateByName("dedup", cfg.numCores, 1, 0.02);
    System sys(cfg, w);
    EXPECT_GT(sys.run(), 0u);
    EXPECT_TRUE(sys.allFinished());
}

TEST(Config, DescribeMentionsKeyParameters)
{
    std::ostringstream os;
    makeConfig(EngineKind::Tsoper).describe(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("TSOPER"), std::string::npos);
    EXPECT_NE(out.find("SLC"), std::string::npos);
    EXPECT_NE(out.find("360/240"), std::string::npos);
    EXPECT_NE(out.find("80 cachelines"), std::string::npos);
    EXPECT_NE(out.find("10 KiB"), std::string::npos);
}

TEST(Config, ToStringCoversAllKinds)
{
    EXPECT_STREQ(toString(ProtocolKind::Mesi), "MESI");
    EXPECT_STREQ(toString(ProtocolKind::Slc), "SLC");
    EXPECT_STREQ(toString(EngineKind::Tsoper), "TSOPER");
    EXPECT_STREQ(toString(EngineKind::BspSlcAgb), "BSP+SLC+AGB");
}
