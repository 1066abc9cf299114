/**
 * @file
 * System configuration, mirroring Table I of the TSOPER paper plus the
 * knobs that select the persistency engine and coherence protocol.
 */

#ifndef TSOPER_SIM_CONFIG_HH
#define TSOPER_SIM_CONFIG_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace tsoper
{

/** Which coherence protocol the private caches speak. */
enum class ProtocolKind
{
    Mesi, ///< Conventional directory MESI (baseline comparison, BSP).
    Slc,  ///< Sharing-list coherence (SCI-inspired; §IV of the paper).
};

/** Which persistency mechanism runs on top of coherence. */
enum class EngineKind
{
    None,      ///< Baseline: no persistency support.
    Stw,       ///< Stop-the-world strict TSO persistency (§III).
    Bsp,       ///< Buffered Strict Persistency, Joshi et al. (through-LLC).
    BspSlc,    ///< BSP with SLC multiversioning (no L1 exclusion).
    BspSlcAgb, ///< BSP+SLC persisting via an unbounded AGB.
    HwRp,      ///< Hardware relaxed persistency at SFR granularity.
    Tsoper,    ///< The paper's full proposal: AGs + SLC + AGB.
};

const char *toString(ProtocolKind kind);
const char *toString(EngineKind kind);

/**
 * Resolve a CLI engine name ("baseline", "baseline-mesi", "hwrp",
 * "bsp", "bsp-slc", "bsp-slc-agb", "stw", "tsoper") to an EngineKind
 * plus the protocol it runs on.  Returns false for unknown names
 * (the shared non-fatal path for tsoper_sim and the campaign runner).
 */
bool engineFromName(const std::string &name, EngineKind *engine,
                    ProtocolKind *protocol);

/** All accepted engine names, in evaluation order. */
const std::vector<std::string> &engineNames();

struct SystemConfig
{
    // --- Cores -----------------------------------------------------
    unsigned numCores = 8;
    unsigned storeBufferEntries = 32;

    // --- Private cache (collapsed L1/L2 level; see DESIGN.md §1) ---
    unsigned privSets = 1024;   ///< 512 KiB, 8-way, 64 B lines.
    unsigned privWays = 8;
    Cycle privLatency = 4;      ///< Hit latency, cycles.
    /** Miss-status holding registers per core: distinct lines a core
     *  may have missing in flight; further misses to new lines stall
     *  and retry as registers free (mshr.full_stalls counts them). */
    unsigned mshrEntries = 8;

    // --- Shared LLC ------------------------------------------------
    unsigned llcBanks = 8;
    unsigned llcSets = 1024;    ///< Per bank: 1 MiB, 16-way (8 MiB total).
    unsigned llcWays = 16;
    Cycle llcLatency = 20;

    // --- Directory (banked with the LLC) ---------------------------
    unsigned dirEntriesPerBank = 32768;
    unsigned dirEvictBufferEntries = 64;

    // --- NoC (4x4 mesh: 8 cores + 8 LLC/dir/MC nodes) ---------------
    unsigned meshCols = 4;
    unsigned meshRows = 4;
    Cycle hopLatency = 3;
    unsigned linkBytesPerCycle = 16;
    unsigned ctrlMsgBytes = 8;  ///< Header-only message size.

    // --- NVM ---------------------------------------------------------
    unsigned nvmRanks = 8;      ///< One memory controller per rank.
    Cycle nvmWriteLatency = 360;
    Cycle nvmReadLatency = 240;
    /** Rank occupancy per access: DDR ranks pipeline — the service
     *  *latency* is hundreds of cycles but a rank accepts a new burst
     *  every few cycles.  Same-address FIFO order is preserved because
     *  issue order fixes completion order at constant latency. */
    Cycle nvmWriteOccupancy = 32;
    Cycle nvmReadOccupancy = 16;

    // --- AGB (per memory channel, §II-B/C) ---------------------------
    bool agbDistributed = true;
    unsigned agbSliceLines = 160; ///< 10 KiB per channel at 64 B lines.
    bool agbUnbounded = false;    ///< BSP+SLC+AGB idealization (§V-B).
    Cycle agbWriteLatency = 2;    ///< SRAM buffer write, cycles/line.

    // --- Atomic groups / epochs -------------------------------------
    unsigned agMaxLines = 80;     ///< Hard AG cap (§V "Systems").
    unsigned evictBufferEntries = 16; ///< §III-B footnote 3.
    unsigned bspEpochStores = 10000;  ///< BSP epoch length (§V-B).

    // --- HW-RP --------------------------------------------------------
    /** Per-core persist queue depth.  The paper gives HW-RP every
     *  advantage (§V "Systems"); a deep buffer keeps cores from
     *  stalling on persist backpressure. */
    unsigned hwrpQueueEntries = 512;
    /** Per-memory-controller write-pending-queue depth (WPQ [37]):
     *  entries are durable on arrival and drain to NVM behind. */
    unsigned wpqEntriesPerMc = 64;

    // --- Mode selection ------------------------------------------------
    ProtocolKind protocol = ProtocolKind::Slc;
    EngineKind engine = EngineKind::Tsoper;

    // --- Instrumentation -------------------------------------------------
    bool recordStores = false;  ///< Keep the store log for crash checking.
    std::uint64_t seed = 1;

    /** Is the configuration internally consistent?
     *  @return false with the first problem in @p err. */
    bool check(std::string *err) const;

    /** Throw (fatal) with check()'s message if it fails. */
    void validate() const;

    /** Print a Table-I-style description of the configuration. */
    void describe(std::ostream &os) const;
};

/**
 * Canonical configuration for one of the paper's evaluated systems,
 * picking the protocol each engine requires (BSP runs on MESI; the
 * baseline, BSP+SLC and onwards run on SLC).
 */
SystemConfig makeConfig(EngineKind engine);

} // namespace tsoper

#endif // TSOPER_SIM_CONFIG_HH
