/**
 * @file
 * Crash-consistency checker.
 *
 * Given the durable state reconstructed after an injected crash and the
 * recorded execution (StoreLog), the checker decides whether the
 * durable state is a legal cut of the execution under the persistency
 * model:
 *
 *  StrictTso — the paper's guarantee: there must exist a downward-
 *  closed set S of stores (under per-core TSO program order, per-word
 *  coherence order, and reads-from dependencies) such that the durable
 *  state equals the final value of S per word.  Concretely: the
 *  closure of the durable word values must itself be durably
 *  reflected — for every store s in the closure, the durable value of
 *  s's word is s or a same-word successor of s.
 *
 *  RelaxedSfr — HW-RP's weaker contract: program order is only
 *  enforced across SFR boundaries (stores within an SFR are unordered);
 *  same-word order and reads-from still apply.  The contract assumes a
 *  data-race-free program, where synchronization orders every read
 *  after the write it reads, but the check applies every recorded
 *  reads-from edge, synchronized or not.  HW-RP carries persist order
 *  across cores only through its lock and barrier clocks, and the
 *  synthetic profiles race, so a racy edge can require a store HW-RP
 *  had no reason to persist yet: hwrp/fft x0.05 seed 3 crashed at 0.9
 *  fails this check (test_golden_stats pins the verdict).
 *
 * Atomic-group atomicity violations are caught by the same check: a
 * torn AG leaves some program-order (or rf) predecessor of a durable
 * store undurable, which the closure flags.
 */

#ifndef TSOPER_CORE_CRASH_CHECKER_HH
#define TSOPER_CORE_CRASH_CHECKER_HH

#include <string>
#include <unordered_map>

#include "mem/nvm.hh"
#include "sim/store_log.hh"
#include "sim/types.hh"

namespace tsoper
{

enum class PersistModel
{
    StrictTso,
    RelaxedSfr,
};

struct CheckResult
{
    bool ok = true;
    std::string detail;          ///< First violation, human-readable.
    std::size_t requiredStores = 0; ///< Size of the computed closure.
    std::size_t durableWords = 0;   ///< Non-empty words checked.
};

/**
 * Validate @p durable (line -> per-word StoreIds) against the recorded
 * execution under @p model.
 */
CheckResult checkDurableState(
    const std::unordered_map<LineAddr, LineWords> &durable,
    const StoreLog &log, PersistModel model, unsigned numCores);

} // namespace tsoper

#endif // TSOPER_CORE_CRASH_CHECKER_HH
