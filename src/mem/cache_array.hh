/**
 * @file
 * CacheArray<Payload>: a set-associative tag store that keeps the
 * owner's per-line state (an SLC node, a directory entry, an LLC way)
 * in the way, so a line's state is one lookup away.  A way is a packed
 * 16-byte tag plus a Payload.  Only the per-set valid masks are written
 * at construction; tags and payloads sit in pages mapped uninitialized
 * from the OS, only valid ways are read, and only touched pages become
 * resident.  Replacement: the first free way, else the LRU unpinned
 * way (pinned: a line mid-persist, or an entry an open transaction
 * holds).
 *
 * EvictBuffer<Payload>: a §III-B eviction buffer, a fixed number of
 * (line, payload) slots for state that left its array but has not
 * finished tearing down.  With no backpressure path in the model,
 * overflowing it is a hard invariant.
 */

#ifndef TSOPER_MEM_CACHE_ARRAY_HH
#define TSOPER_MEM_CACHE_ARRAY_HH

#include <sys/mman.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "sim/log.hh"
#include "sim/types.hh"

namespace tsoper
{

template <typename Payload>
class CacheArray
{
    static_assert(std::is_trivially_copyable_v<Payload> &&
                      std::is_trivially_destructible_v<Payload>,
                  "ways are reused and handed back by copy");

  public:
    /** Outcome of an insert() call. */
    struct Insert
    {
        Payload *slot = nullptr; ///< The line's way; null iff noSpace.
        bool hit = false;        ///< Line was already present.
        bool evicted = false;    ///< A victim was displaced.
        bool noSpace = false;    ///< Set full of pinned lines.
        LineAddr victim = 0;     ///< Valid iff evicted.
        Payload victimPayload{}; ///< Copied out before the way's reuse.
    };

    /** @p sets (a power of two) of @p ways (at most 32); @p setShift
     *  line-address bits are skipped when indexing sets — banked
     *  structures whose low line bits select the bank. */
    CacheArray(unsigned sets, unsigned ways, unsigned setShift = 0)
        : sets_(sets), ways_(ways), setShift_(setShift)
    {
        tsoper_assert(sets != 0 && (sets & (sets - 1)) == 0,
                      "set count must be a power of two");
        tsoper_assert(ways != 0 && ways <= 32,
                      "associativity must be in [1, 32], got ", ways);
        valid_ = std::make_unique<std::uint32_t[]>(sets);
        tags_ = mapPages<Tag>(std::size_t{sets} * ways);
        payloads_ = mapPages<Payload>(std::size_t{sets} * ways);
    }

    /** @p line 's payload, or null if it is not resident. */
    Payload *
    find(LineAddr line)
    {
        const std::size_t w = wayOf(line);
        return w == npos ? nullptr : &payloads_[w];
    }

    const Payload *
    find(LineAddr line) const
    {
        return const_cast<CacheArray *>(this)->find(line);
    }

    bool contains(LineAddr line) const { return wayOf(line) != npos; }

    /**
     * Ensure @p line is resident, evicting the LRU unpinned line of its
     * set if needed, and refresh its recency.  A newly inserted line's
     * payload is value-initialized and unpinned.
     */
    Insert
    insert(LineAddr line)
    {
        Insert result;
        std::size_t w = wayOf(line);
        if (w != npos) {
            tags_[w].lastUse = ++useClock_;
            result.hit = true;
            result.slot = &payloads_[w];
            return result;
        }
        const unsigned set = setOf(line);
        const std::size_t base = std::size_t{set} * ways_;
        const std::uint32_t free = ~valid_[set] & (~0u >> (32 - ways_));
        if (free != 0) {
            w = base + static_cast<unsigned>(std::countr_zero(free));
            valid_[set] |= 1u << (w - base);
            ++population_;
        } else {
            for (std::size_t v = base; v < base + ways_; ++v) {
                if (!tags_[v].pinned &&
                    (w == npos || tags_[v].lastUse < tags_[w].lastUse))
                    w = v;
            }
            if (w == npos) {
                result.noSpace = true;
                return result;
            }
            result.evicted = true;
            result.victim = tags_[w].line;
            result.victimPayload = payloads_[w];
        }
        ::new (&tags_[w]) Tag{line, ++useClock_, false};
        result.slot = ::new (&payloads_[w]) Payload{};
        return result;
    }

    /** Remove @p line if present. @return true if it was present. */
    bool
    erase(LineAddr line)
    {
        const std::size_t w = wayOf(line);
        if (w == npos)
            return false;
        valid_[w / ways_] &= ~(1u << (w % ways_));
        --population_;
        return true;
    }

    /** Refresh the recency of the line whose payload is @p way. */
    void touch(const Payload *way) { tagOf(way).lastUse = ++useClock_; }

    /** Pin/unpin the line whose payload is @p way. */
    void setPinned(const Payload *way, bool pin) { tagOf(way).pinned = pin; }

    bool isPinned(const Payload *way) const { return tagOf(way).pinned; }

    /** Number of resident lines. */
    std::size_t size() const { return population_; }

  private:
    struct Tag
    {
        LineAddr line;
        std::uint64_t lastUse : 63;
        std::uint64_t pinned : 1;
    };
    static_assert(sizeof(Tag) == 16);

    /** Unmaps pages obtained by mapPages(). */
    struct Unmap
    {
        std::size_t bytes = 0;
        void operator()(void *p) const { ::munmap(p, bytes); }
    };

    template <typename T>
    using Pages = std::unique_ptr<T[], Unmap>;

    /** Room for @p n T's in fresh, unwritten pages. */
    template <typename T>
    static Pages<T>
    mapPages(std::size_t n)
    {
        void *p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return Pages<T>(static_cast<T *>(p), Unmap{n * sizeof(T)});
    }

    static constexpr std::size_t npos = ~std::size_t{0};

    unsigned setOf(LineAddr line) const
    {
        return static_cast<unsigned>(line >> setShift_) & (sets_ - 1);
    }

    Tag &
    tagOf(const Payload *way) const
    {
        return tags_[way - &payloads_[0]];
    }

    /** Index of @p line 's way, or npos; reads only valid ways. */
    std::size_t
    wayOf(LineAddr line) const
    {
        const unsigned set = setOf(line);
        for (std::uint32_t m = valid_[set]; m != 0; m &= m - 1) {
            const std::size_t w = std::size_t{set} * ways_ +
                                  static_cast<unsigned>(std::countr_zero(m));
            if (tags_[w].line == line)
                return w;
        }
        return npos;
    }

    unsigned sets_;
    unsigned ways_;
    unsigned setShift_;
    std::unique_ptr<std::uint32_t[]> valid_; ///< Per set, bit per way.
    Pages<Tag> tags_;                        ///< sets_ x ways_, row-major.
    Pages<Payload> payloads_;                ///< Parallel to tags_.
    std::uint64_t useClock_ = 0;
    std::size_t population_ = 0;
};

template <typename Payload>
class EvictBuffer
{
  public:
    /** @p what names the buffer in the overflow panic. */
    EvictBuffer(unsigned capacity, const char *what)
        : slots_(capacity), what_(what)
    {
    }

    /** @p line 's parked payload, or null. */
    Payload *
    find(LineAddr line)
    {
        Slot *s = slotOf(line);
        return s ? &s->payload : nullptr;
    }

    const Payload *
    find(LineAddr line) const
    {
        return const_cast<EvictBuffer *>(this)->find(line);
    }

    /** Park @p payload for @p line; panics if every slot is taken.
     *  The returned reference stays valid until @p line leaves. */
    Payload &
    park(LineAddr line, const Payload &payload)
    {
        for (Slot &s : slots_) {
            if (!s.used) {
                s = Slot{line, payload, true};
                ++size_;
                return s.payload;
            }
        }
        tsoper_panic(what_, " over capacity: ", size_ + 1, " entries, cap ",
                     slots_.size());
    }

    /** Drop @p line 's slot, if parked. */
    void
    erase(LineAddr line)
    {
        if (Slot *s = slotOf(line)) {
            s->used = false;
            --size_;
        }
    }

    unsigned size() const { return size_; }

  private:
    struct Slot
    {
        LineAddr line = 0;
        Payload payload{};
        bool used = false;
    };

    Slot *
    slotOf(LineAddr line)
    {
        for (Slot &s : slots_) {
            if (size_ != 0 && s.used && s.line == line)
                return &s;
        }
        return nullptr;
    }

    std::vector<Slot> slots_;
    unsigned size_ = 0;
    const char *what_;
};

} // namespace tsoper

#endif // TSOPER_MEM_CACHE_ARRAY_HH
