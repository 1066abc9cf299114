#include "core/crash_checker.hh"

#include <deque>
#include <span>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "sim/log.hh"

namespace tsoper
{

namespace
{

std::string
describeStore(const StoreLog::Record &rec)
{
    std::ostringstream os;
    os << "store core" << storeCore(rec.id) << "#" << storeSeq(rec.id)
       << " addr=0x" << std::hex << rec.addr << std::dec << " (word chain "
       << rec.wordChainIndex << ", sfr " << rec.sfrIndex << ")";
    return os.str();
}

} // namespace

CheckResult
checkDurableState(const std::unordered_map<LineAddr, LineWords> &durable,
                  const StoreLog &log, PersistModel model,
                  unsigned numCores)
{
    CheckResult result;
    auto fail = [&result](const std::string &msg) {
        result.ok = false;
        if (result.detail.empty())
            result.detail = msg;
    };

    // Precompute, per core, the first sequence number of each SFR (for
    // the relaxed program-order rule).
    std::vector<std::vector<std::uint64_t>> sfrFirstSeq(numCores);
    if (model == PersistModel::RelaxedSfr) {
        for (unsigned c = 0; c < numCores; ++c) {
            std::uint32_t lastSfr = 0;
            sfrFirstSeq[c].push_back(0);
            const std::uint64_t n = log.storesOf(static_cast<CoreId>(c));
            for (std::uint64_t q = 0; q < n; ++q) {
                const StoreLog::Record *rec =
                    log.find(makeStoreId(static_cast<CoreId>(c), q));
                tsoper_assert(rec);
                while (lastSfr < rec->sfrIndex) {
                    sfrFirstSeq[c].push_back(q);
                    ++lastSfr;
                }
            }
        }
    }

    std::unordered_set<StoreId> required;
    std::deque<StoreId> work;
    std::vector<std::uint64_t> corePrefix(numCores, 0);
    std::unordered_map<Addr, std::uint32_t> chainPrefix;

    auto addStore = [&](StoreId id) {
        if (required.insert(id).second)
            work.push_back(id);
    };

    auto expandCorePrefix = [&](CoreId core, std::uint64_t count) {
        auto &prefix = corePrefix[static_cast<unsigned>(core)];
        while (prefix < count)
            addStore(makeStoreId(core, prefix++));
    };

    auto expandChain = [&](Addr addr, std::uint32_t upToIndex) {
        const std::span<const StoreId> chain = log.wordChain(addr);
        auto &prefix = chainPrefix[addr >> wordShift];
        while (prefix < upToIndex && prefix < chain.size())
            addStore(chain[prefix++]);
    };

    // Seed: every durable word value.  Also validate that each durable
    // value is a logged store to that very word (functional sanity).
    for (const auto &[line, words] : durable) {
        for (unsigned w = 0; w < wordsPerLine; ++w) {
            const StoreId id = words[w];
            if (id == invalidStore)
                continue;
            ++result.durableWords;
            const StoreLog::Record *rec = log.find(id);
            if (!rec) {
                std::ostringstream os;
                os << "durable word 0x" << std::hex
                   << (addrOfLine(line) + w * wordBytes)
                   << " holds unknown store id 0x" << id << std::dec;
                fail(os.str());
                continue;
            }
            if (lineOf(rec->addr) != line || wordOf(rec->addr) != w) {
                std::ostringstream os;
                os << describeStore(*rec) << " appears durable at wrong "
                   << "word 0x" << std::hex
                   << (addrOfLine(line) + w * wordBytes) << std::dec;
                fail(os.str());
                continue;
            }
            addStore(id);
        }
    }

    // Closure under the persistency model's must-persist-before edges.
    while (!work.empty()) {
        const StoreId id = work.front();
        work.pop_front();
        const StoreLog::Record *rec = log.find(id);
        if (!rec) {
            std::ostringstream os;
            os << "closure reached unlogged store id 0x" << std::hex << id
               << std::dec;
            fail(os.str());
            continue;
        }
        const CoreId core = storeCore(id);
        if (model == PersistModel::StrictTso) {
            expandCorePrefix(core, storeSeq(id));
        } else {
            const auto &firsts = sfrFirstSeq[static_cast<unsigned>(core)];
            const std::uint64_t first =
                rec->sfrIndex < firsts.size() ? firsts[rec->sfrIndex]
                                              : firsts.back();
            expandCorePrefix(core, first);
        }
        expandChain(rec->addr, rec->wordChainIndex);
        for (StoreId rf : log.rfPreds(*rec))
            addStore(rf);
    }
    result.requiredStores = required.size();

    // Every required store must be durably reflected: the durable value
    // of its word must be it or a same-word successor.
    for (StoreId id : required) {
        const StoreLog::Record *rec = log.find(id);
        if (!rec)
            continue; // Already reported above.
        const LineAddr line = lineOf(rec->addr);
        const unsigned w = wordOf(rec->addr);
        auto dit = durable.find(line);
        const StoreId dval =
            dit == durable.end() ? invalidStore : dit->second[w];
        if (dval == invalidStore) {
            fail("required " + describeStore(*rec) +
                 " has no durable value at its word");
            continue;
        }
        const StoreLog::Record *drec = log.find(dval);
        if (!drec || drec->wordChainIndex < rec->wordChainIndex) {
            fail("required " + describeStore(*rec) +
                 " is newer than the durable value of its word" +
                 (drec ? " (" + describeStore(*drec) + ")" : ""));
        }
    }
    return result;
}

} // namespace tsoper
