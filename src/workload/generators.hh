/**
 * @file
 * Synthetic workload generators.
 *
 * Each of the paper's 21 PARSEC 3.0 / Splash-3 benchmarks is modelled
 * by a *profile* over a small set of access-pattern kernels.  The
 * kernels reproduce the memory-system-visible traits that drive
 * TSOPER's behaviour: write volume, inter-core sharing, sharing
 * granularity (including false-sharing-style interleaving for
 * lu_ncb), synchronization style and density, and spatial locality.
 */

#ifndef TSOPER_WORKLOAD_GENERATORS_HH
#define TSOPER_WORKLOAD_GENERATORS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "workload/trace.hh"

namespace tsoper
{

enum class Kernel
{
    Stencil,        ///< Grid sweep with neighbour reads + phase barriers.
    Scatter,        ///< Sequential reads, randomized shared writes.
    Interleaved,    ///< Word-interleaved ownership (false sharing).
    TaskQueue,      ///< Lock-protected work queue + private compute.
    Pipeline,       ///< Stage-to-stage buffers guarded by locks.
    PrivateCompute, ///< Dominantly private working set.
    LockGrid,       ///< Fine-grained locks over shared cells.
};

/** Shape parameters for one benchmark. */
struct Profile
{
    std::string name;
    Kernel kernel = Kernel::PrivateCompute;
    unsigned opsPerCore = 8000;  ///< Approximate memory ops per core.
    double writeFrac = 0.3;      ///< Store fraction of memory ops.
    double sharedFrac = 0.2;     ///< Accesses hitting the shared region.
    unsigned privateWords = 1 << 14;
    unsigned sharedWords = 1 << 14;
    unsigned computeMin = 1;     ///< Compute cycles between bursts.
    unsigned computeMax = 8;
    unsigned opsPerPhase = 1000; ///< Memory ops between barriers.
    unsigned numLocks = 16;
    double lockProb = 0.0;       ///< Critical-section frequency.
    unsigned burstMax = 8;       ///< Sequential run length.
};

/**
 * Largest workload scale.  At x1000 the largest profile (9,000 ops per
 * core) asks for 9 M ops per core: far past any sweep, and far inside
 * the generator's 32-bit op count.
 */
constexpr double maxScale = 1000.0;

/** @p scale is finite and in (0, maxScale]. */
constexpr bool
validScale(double scale)
{
    return scale > 0.0 && scale <= maxScale;
}

/**
 * Generate the multi-core workload for @p profile; fatal unless
 * validScale(@p scale).
 */
Workload generate(const Profile &profile, unsigned numCores,
                  std::uint64_t seed, double scale = 1.0);

/** The 21 evaluated benchmarks (paper §V "Benchmarks"). */
const std::vector<Profile> &allProfiles();

/** Profile lookup by benchmark name; fatal if unknown. */
const Profile &profileByName(const std::string &name);

/** Profile lookup by benchmark name; nullptr if unknown. */
const Profile *findProfile(const std::string &name);

/** Names of all benchmarks in evaluation order. */
std::vector<std::string> benchmarkNames();

/**
 * Convenience: generate a named benchmark.  @p scale multiplies
 * opsPerCore (benches use < 1.0 for quick sweeps, 1.0 for full runs);
 * fatal for an unknown name or an invalid scale.
 */
Workload generateByName(const std::string &name, unsigned numCores,
                        std::uint64_t seed, double scale = 1.0);

} // namespace tsoper

#endif // TSOPER_WORKLOAD_GENERATORS_HH
