/**
 * @file
 * Fifo<T>: a queue over a power-of-two ring of slots.  Unlike
 * std::deque it allocates nothing while empty and keeps its slots
 * across drain cycles, so per-line, per-core and per-rank queues on
 * the event path cost no allocation in steady state; it only grows
 * (doubling) past its peak occupancy.
 */

#ifndef TSOPER_SIM_FIFO_HH
#define TSOPER_SIM_FIFO_HH

#include <cstddef>
#include <utility>
#include <vector>

namespace tsoper
{

template <typename T>
class Fifo
{
  public:
    bool empty() const { return size_ == 0; }

    void
    push(T item)
    {
        if (size_ == slots_.size())
            grow();
        slots_[(head_ + size_++) & (slots_.size() - 1)] = std::move(item);
    }

    /** The oldest item (the queue is not empty). */
    const T &front() const { return slots_[head_]; }

    /** Remove and return the oldest item (the queue is not empty). */
    T
    pop()
    {
        T item = std::move(slots_[head_]);
        head_ = (head_ + 1) & (slots_.size() - 1);
        --size_;
        return item;
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger(slots_.empty() ? 4 : 2 * slots_.size());
        for (std::size_t i = 0; i < size_; ++i)
            bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
        slots_ = std::move(bigger);
        head_ = 0;
    }

    std::vector<T> slots_; ///< Ring; size is zero or a power of two.
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace tsoper

#endif // TSOPER_SIM_FIFO_HH
