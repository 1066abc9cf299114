#include "mem/cache_array.hh"

#include "sim/log.hh"

namespace tsoper
{

CacheArray::CacheArray(unsigned sets, unsigned ways, unsigned setShift)
    : sets_(sets), ways_(ways), setShift_(setShift), entries_(sets * ways)
{
    tsoper_assert(sets != 0 && (sets & (sets - 1)) == 0,
                  "set count must be a power of two");
    tsoper_assert(ways != 0);
}

CacheArray::Entry *
CacheArray::find(LineAddr line)
{
    Entry *base = &entries_[setOf(line) * ways_];
    for (unsigned w = 0; w < ways_; ++w) {
        if (base[w].valid && base[w].line == line)
            return &base[w];
    }
    return nullptr;
}

const CacheArray::Entry *
CacheArray::find(LineAddr line) const
{
    return const_cast<CacheArray *>(this)->find(line);
}

bool
CacheArray::contains(LineAddr line) const
{
    return find(line) != nullptr;
}

void
CacheArray::touch(LineAddr line)
{
    Entry *e = find(line);
    tsoper_assert(e, "touch of absent line ", line);
    e->lastUse = ++useClock_;
}

CacheArray::Insert
CacheArray::insert(LineAddr line)
{
    Insert result;
    if (Entry *e = find(line)) {
        e->lastUse = ++useClock_;
        result.hit = true;
        return result;
    }
    Entry *base = &entries_[setOf(line) * ways_];
    Entry *slot = nullptr;
    Entry *victim = nullptr;
    for (unsigned w = 0; w < ways_; ++w) {
        Entry &e = base[w];
        if (!e.valid) {
            slot = &e;
            break;
        }
        if (!e.pinned && (!victim || e.lastUse < victim->lastUse))
            victim = &e;
    }
    if (!slot) {
        if (!victim) {
            result.noSpace = true;
            return result;
        }
        result.evicted = true;
        result.victim = victim->line;
        --population_;
        slot = victim;
    }
    slot->line = line;
    slot->valid = true;
    slot->pinned = false;
    slot->lastUse = ++useClock_;
    ++population_;
    return result;
}

bool
CacheArray::erase(LineAddr line)
{
    Entry *e = find(line);
    if (!e)
        return false;
    e->valid = false;
    e->pinned = false;
    --population_;
    return true;
}

void
CacheArray::setPinned(LineAddr line, bool pinned)
{
    Entry *e = find(line);
    tsoper_assert(e, "pin of absent line ", line);
    e->pinned = pinned;
}

bool
CacheArray::isPinned(LineAddr line) const
{
    const Entry *e = find(line);
    tsoper_assert(e, "isPinned of absent line ", line);
    return e->pinned;
}

} // namespace tsoper
