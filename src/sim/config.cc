#include "sim/config.hh"

#include <ostream>

#include "sim/log.hh"

namespace tsoper
{

const char *
toString(ProtocolKind kind)
{
    switch (kind) {
      case ProtocolKind::Mesi: return "MESI";
      case ProtocolKind::Slc:  return "SLC";
    }
    return "?";
}

const char *
toString(EngineKind kind)
{
    switch (kind) {
      case EngineKind::None:      return "baseline";
      case EngineKind::Stw:       return "STW";
      case EngineKind::Bsp:       return "BSP";
      case EngineKind::BspSlc:    return "BSP+SLC";
      case EngineKind::BspSlcAgb: return "BSP+SLC+AGB";
      case EngineKind::HwRp:      return "HW-RP";
      case EngineKind::Tsoper:    return "TSOPER";
    }
    return "?";
}

bool
engineFromName(const std::string &name, EngineKind *engine,
               ProtocolKind *protocol)
{
    // Every engine runs on SLC except BSP and the MESI baseline,
    // mirroring makeConfig's pairing.
    *protocol = ProtocolKind::Slc;
    if (name == "baseline") {
        *engine = EngineKind::None;
    } else if (name == "baseline-mesi") {
        *engine = EngineKind::None;
        *protocol = ProtocolKind::Mesi;
    } else if (name == "hwrp") {
        *engine = EngineKind::HwRp;
    } else if (name == "bsp") {
        *engine = EngineKind::Bsp;
        *protocol = ProtocolKind::Mesi;
    } else if (name == "bsp-slc") {
        *engine = EngineKind::BspSlc;
    } else if (name == "bsp-slc-agb") {
        *engine = EngineKind::BspSlcAgb;
    } else if (name == "stw") {
        *engine = EngineKind::Stw;
    } else if (name == "tsoper") {
        *engine = EngineKind::Tsoper;
    } else {
        return false;
    }
    return true;
}

const std::vector<std::string> &
engineNames()
{
    static const std::vector<std::string> names = {
        "baseline", "baseline-mesi", "hwrp", "bsp",
        "bsp-slc",  "bsp-slc-agb",   "stw",  "tsoper"};
    return names;
}

static bool
isPow2(unsigned v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

bool
SystemConfig::check(std::string *err) const
{
    const auto fail = [err](auto &&...parts) {
        if (err)
            *err = logFormat(parts...);
        return false;
    };
    if (numCores == 0 || numCores > 64)
        return fail("numCores must be in [1, 64], got ", numCores);
    if (!isPow2(privSets) || !isPow2(llcSets))
        return fail("cache set counts must be powers of two");
    if (!isPow2(llcBanks) || !isPow2(nvmRanks))
        return fail("bank/rank counts must be powers of two");
    if (privWays == 0 || privWays > 32 || llcWays == 0 || llcWays > 32)
        return fail("cache associativity must be in [1, 32]");
    if (storeBufferEntries == 0)
        return fail("store buffer must have at least one entry");
    if (agMaxLines == 0)
        return fail("agMaxLines must be non-zero");
    const std::uint64_t agbLines =
        std::uint64_t{agbSliceLines} * nvmRanks;
    if (!agbUnbounded && agMaxLines > agbLines)
        return fail("an atomic group (", agMaxLines,
                    " lines) cannot exceed total AGB capacity (",
                    agbLines, " lines)");
    if (meshCols * meshRows < numCores + llcBanks)
        return fail("mesh too small: need ", numCores + llcBanks,
                    " nodes, have ", meshCols * meshRows);
    const bool needsSlc = engine == EngineKind::Tsoper ||
                          engine == EngineKind::Stw ||
                          engine == EngineKind::BspSlc ||
                          engine == EngineKind::BspSlcAgb ||
                          engine == EngineKind::HwRp;
    if (needsSlc && protocol != ProtocolKind::Slc)
        return fail(toString(engine), " requires the SLC protocol");
    if (engine == EngineKind::Bsp && protocol != ProtocolKind::Mesi)
        return fail("BSP persists through the LLC on MESI");
    if (mshrEntries == 0)
        return fail("a core needs at least one MSHR entry");
    return true;
}

void
SystemConfig::validate() const
{
    std::string err;
    if (!check(&err))
        tsoper_fatal(err);
}

void
SystemConfig::describe(std::ostream &os) const
{
    os << "System configuration (cf. paper Table I)\n"
       << "  Cores                 " << numCores
       << " in-order, TSO, " << storeBufferEntries << "-entry SB\n"
       << "  Private cache         " << (privSets * privWays * lineBytes /
                                         1024)
       << " KiB, " << privWays << "-way, " << privLatency << "-cycle\n"
       << "  Shared LLC            " << llcBanks << " banks x "
       << (llcSets * llcWays * lineBytes / 1024) << " KiB, " << llcWays
       << "-way, " << llcLatency << "-cycle\n"
       << "  Directory             " << llcBanks << " banks x "
       << dirEntriesPerBank << " entries, " << dirEvictBufferEntries
       << "-entry eviction buffer\n"
       << "  NoC                   " << meshCols << "x" << meshRows
       << " mesh, " << hopLatency << "-cycle hops, "
       << linkBytesPerCycle << " B/cycle links\n"
       << "  NVM                   " << nvmRanks << " ranks, "
       << nvmWriteLatency << "/" << nvmReadLatency
       << "-cycle write/read\n"
       << "  AGB                   "
       << (agbUnbounded
               ? std::string("unbounded (idealized)")
               : std::to_string(agbSliceLines * lineBytes / 1024) +
                     " KiB/channel (" + std::to_string(agbSliceLines) +
                     " lines)")
       << (agbDistributed ? ", distributed + arbiter" : ", centralized")
       << "\n"
       << "  Atomic group cap      " << agMaxLines << " cachelines\n"
       << "  Eviction buffer       " << evictBufferEntries << " entries\n"
       << "  Protocol / engine     " << toString(protocol) << " / "
       << toString(engine) << "\n";
}

SystemConfig
makeConfig(EngineKind engine)
{
    SystemConfig cfg;
    cfg.engine = engine;
    switch (engine) {
      case EngineKind::Bsp:
        cfg.protocol = ProtocolKind::Mesi;
        break;
      case EngineKind::BspSlcAgb:
        cfg.protocol = ProtocolKind::Slc;
        cfg.agbUnbounded = true;
        break;
      default:
        cfg.protocol = ProtocolKind::Slc;
        break;
    }
    return cfg;
}

} // namespace tsoper
