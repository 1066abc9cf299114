/**
 * @file
 * Non-volatile memory model: 8 DDR-style ranks, one memory controller
 * each, with the paper's 360/240-cycle write/read service latencies
 * (Table I).  Each rank services requests serially.
 *
 * The durable image maps cachelines to per-word StoreIds; a word's
 * StoreId identifies the dynamic store whose value the word holds,
 * which is what the crash checker validates against the recorded
 * execution.  Writes become durable at their *completion* event, so
 * simply stopping the event queue at a crash point yields the correct
 * durable state.
 */

#ifndef TSOPER_MEM_NVM_HH
#define TSOPER_MEM_NVM_HH

#include <array>
#include <memory>
#include <unordered_map>
#include <vector>

#include "sim/callback.hh"
#include "sim/config.hh"
#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tsoper
{

/** Functional contents of one cacheline version, one StoreId per word. */
using LineWords = std::array<StoreId, wordsPerLine>;

/** All-zero line contents (no store has written any word). */
inline LineWords
zeroLine()
{
    LineWords w{};
    w.fill(invalidStore);
    return w;
}

/** Overlay @p src onto @p dst: non-invalid words of src win. */
inline void
mergeWords(LineWords &dst, const LineWords &src)
{
    for (unsigned i = 0; i < wordsPerLine; ++i) {
        if (src[i] != invalidStore)
            dst[i] = src[i];
    }
}

/** An owner's resident line contents by 4-byte slot, so its tag store's
 *  capacity-sized arrays stay small and this grows with resident lines.
 *  Chunked: a reference stays valid until its slot is freed. */
class LinePool
{
  public:
    using Slot = std::uint32_t;

    Slot
    alloc(const LineWords &words)
    {
        Slot s = size_;
        if (!free_.empty()) {
            s = free_.back();
            free_.pop_back();
        } else if (size_++ % chunkLines == 0) {
            chunks_.push_back(
                std::make_unique_for_overwrite<LineWords[]>(chunkLines));
        }
        (*this)[s] = words;
        return s;
    }

    void free(Slot s) { free_.push_back(s); }

    LineWords &
    operator[](Slot s)
    {
        return chunks_[s / chunkLines][s % chunkLines];
    }

    const LineWords &
    operator[](Slot s) const
    {
        return chunks_[s / chunkLines][s % chunkLines];
    }

  private:
    static constexpr Slot chunkLines = 256; ///< 16 KiB per chunk.

    std::vector<std::unique_ptr<LineWords[]>> chunks_;
    std::vector<Slot> free_;
    Slot size_ = 0;
};

class Nvm
{
  public:
    Nvm(const SystemConfig &cfg, EventQueue &eq, StatsRegistry &stats);

    /** Memory controller / rank that owns @p line. */
    unsigned
    rankOf(LineAddr line) const
    {
        return static_cast<unsigned>(line) & (ranks_ - 1);
    }

    /** Completion of a durable write (AGB and HW-RP callbacks). */
    using WriteDone = InlineFunction<void(Cycle), 40>;

    /**
     * Enqueue a durable write of @p words to @p line, not starting
     * before @p earliest.  The write is applied to the durable image at
     * its completion event; @p done (optional) is invoked then.
     * @return the completion cycle.
     */
    Cycle write(LineAddr line, const LineWords &words, Cycle earliest,
                WriteDone done = {});

    /** Timing-only read service. @return the completion cycle. */
    Cycle read(LineAddr line, Cycle earliest);

    /** Durable contents of @p line (zero line if never written). */
    LineWords durable(LineAddr line) const;

    /** Lines that have ever been durably written. */
    const std::unordered_map<LineAddr, LineWords> &image() const
    {
        return image_;
    }

  private:
    /** A write held in its rank's queue (the controller's write queue)
     *  until its completion event; completions never decrease: FIFO. */
    struct PendingWrite
    {
        LineAddr line;
        LineWords words;
        WriteDone done;
    };

    unsigned ranks_;
    Cycle writeLatency_;
    Cycle readLatency_;
    Cycle writeOccupancy_;
    Cycle readOccupancy_;
    EventQueue &eq_;
    std::vector<Cycle> rankBusyUntil_;
    std::vector<Fifo<PendingWrite>> pending_; ///< Per rank.
    std::unordered_map<LineAddr, LineWords> image_;
    Counter &writesIssued_;
    Counter &writesDone_;
    Counter &reads_;
    Counter &rankWaitCycles_;
};

} // namespace tsoper

#endif // TSOPER_MEM_NVM_HH
