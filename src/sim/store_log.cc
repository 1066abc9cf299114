#include "sim/store_log.hh"

#include <algorithm>
#include <bit>
#include <utility>

#include "sim/log.hh"

namespace tsoper
{

StoreLog::StoreLog(unsigned numCores)
    : records_(numCores), perCoreSfr_(numCores, 0), pendingRf_(numCores),
      staged_(numCores)
{
}

void
StoreLog::loadObserved(CoreId core, Addr addr, StoreId value)
{
    (void)addr;
    if (!enabled_ || value == invalidStore)
        return;
    // Only remote stores create cross-thread persist dependencies;
    // own-store observation is already covered by program order.
    if (storeCore(value) == core)
        return;
    auto &pending = pendingRf_[static_cast<unsigned>(core)];
    if (std::find(pending.begin(), pending.end(), value) == pending.end())
        pending.push_back(value);
}

void
StoreLog::storeIssued(CoreId core, StoreId id)
{
    if (!enabled_)
        return;
    const auto c = static_cast<unsigned>(core);
    auto &pending = pendingRf_[c];
    if (pending.empty())
        return;
    staged_[c].push(Staged{id, static_cast<std::uint32_t>(rfPool_.size()),
                           static_cast<std::uint32_t>(pending.size())});
    rfPool_.insert(rfPool_.end(), pending.begin(), pending.end());
    pending.clear();
}

void
StoreLog::storeCommitted(CoreId core, Addr addr, StoreId id)
{
    if (!enabled_)
        return;
    const auto c = static_cast<unsigned>(core);
    auto &records = records_[c];
    tsoper_assert(storeSeq(id) == records.size(),
                  "store ids must be committed in program order");
    Record &rec = records.emplace_back();
    rec.id = id;
    rec.addr = addr;
    rec.sfrIndex = perCoreSfr_[c];
    auto &staged = staged_[c];
    if (!staged.empty() && staged.front().id == id) {
        const Staged s = staged.pop();
        rec.rfBegin = s.begin;
        rec.rfCount = s.count;
    }
    commitOrder_.push_back(id);
}

void
StoreLog::sfrBoundary(CoreId core)
{
    if (!enabled_)
        return;
    ++perCoreSfr_[static_cast<unsigned>(core)];
}

StoreLog::Record &
StoreLog::recordOf(StoreId id) const
{
    return records_[static_cast<unsigned>(storeCore(id))][storeSeq(id)];
}

StoreLog::WordSlot &
StoreLog::wordSlot(Addr word) const
{
    // Fibonacci hashing into a table at most half full; linear probe.
    const std::size_t mask = words_.size() - 1;
    const int shift = 64 - std::countr_zero(words_.size());
    std::size_t i = static_cast<std::size_t>(
                        (word * 0x9e3779b97f4a7c15ull) >> shift) &
                    mask;
    while (words_[i].chain != noChain && words_[i].word != word)
        i = (i + 1) & mask;
    return words_[i];
}

void
StoreLog::buildIndex() const
{
    // Count per word, numbering each store within its word on the way
    // (commit order is coherence order), then lay every chain out in
    // one array.
    const std::size_t n = commitOrder_.size();
    tsoper_assert(n < noChain, "store log exceeds 2^32 stores");
    words_.assign(std::bit_ceil(std::max<std::size_t>(2 * n, 2)),
                  WordSlot{});
    chainBegin_.clear();
    for (StoreId id : commitOrder_) {
        Record &rec = recordOf(id);
        WordSlot &slot = wordSlot(wordAddr(rec.addr));
        if (slot.chain == noChain) {
            slot.word = wordAddr(rec.addr);
            slot.chain = static_cast<std::uint32_t>(chainBegin_.size());
            chainBegin_.push_back(0);
        }
        rec.wordChainIndex = chainBegin_[slot.chain]++;
    }
    std::uint32_t begin = 0;
    for (std::uint32_t &b : chainBegin_)
        begin += std::exchange(b, begin);
    chainBegin_.push_back(begin);
    chains_.resize(n);
    for (StoreId id : commitOrder_) {
        const Record &rec = recordOf(id);
        chains_[chainBegin_[wordSlot(wordAddr(rec.addr)).chain] +
                rec.wordChainIndex] = id;
    }
    indexed_ = n;
}

const StoreLog::Record *
StoreLog::find(StoreId id) const
{
    const auto c = static_cast<std::size_t>(storeCore(id));
    if (c >= records_.size() || storeSeq(id) >= records_[c].size())
        return nullptr;
    ensureIndex();
    return &recordOf(id);
}

std::span<const StoreId>
StoreLog::wordChain(Addr addr) const
{
    if (commitOrder_.empty())
        return {};
    ensureIndex();
    const WordSlot &slot = wordSlot(wordAddr(addr));
    if (slot.chain == noChain)
        return {};
    const std::uint32_t begin = chainBegin_[slot.chain];
    return {chains_.data() + begin, chainBegin_[slot.chain + 1] - begin};
}

std::uint64_t
StoreLog::storesOf(CoreId core) const
{
    return records_[static_cast<unsigned>(core)].size();
}

} // namespace tsoper
