/**
 * @file
 * A fixed-capacity circular FIFO.
 *
 * The simulator's bounded bookkeeping windows (the tXAW activation
 * window, the cycle model's per-bank command queues, a core's reorder
 * buffer, a cache's outbound queue) and its timed packet queues (the
 * controllers' and the cache's response queues, the crossbar inboxes:
 * PacketQueue) used std::deque, std::list or a vector reclaimed only
 * when it drained, which allocate in steady state as the FIFO marches
 * through its node map, its nodes or its storage. This ring owns one
 * flat array and indices wrap instead of pointers moving. A bounded
 * window sizes it once at init() and never allocates again; an
 * unbounded queue uses insert(), which doubles the array when it is
 * full, so the ring grows to its high-water mark (or the size given
 * to reserve()) and then stops allocating.
 */

#ifndef DRAMCTRL_SIM_RING_BUFFER_H
#define DRAMCTRL_SIM_RING_BUFFER_H

#include <algorithm>
#include <cstddef>
#include <vector>

#include "sim/logging.hh"

namespace dramctrl {

template <typename T>
class RingBuffer
{
  public:
    RingBuffer() = default;

    /** Size (or resize, discarding contents) to @p capacity slots. */
    void
    init(std::size_t capacity)
    {
        slots_.assign(capacity, T{});
        head_ = 0;
        count_ = 0;
    }

    std::size_t capacity() const { return slots_.size(); }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ == slots_.size(); }

    void
    push_back(const T &value)
    {
        DC_ASSERT(!full(), "ring buffer overflow");
        slots_[wrap(head_ + count_)] = value;
        ++count_;
    }

    /** Push, overwriting (and dropping) the oldest element when full. */
    void
    push_back_overwrite(const T &value)
    {
        if (full())
            pop_front();
        push_back(value);
    }

    void
    push_front(const T &value)
    {
        DC_ASSERT(!full(), "ring buffer overflow");
        head_ = head_ == 0 ? slots_.size() - 1 : head_ - 1;
        slots_[head_] = value;
        ++count_;
    }

    /**
     * Insert @p value at position @p i (0 == front, size() == back),
     * moving the elements behind it back one slot. A full ring first
     * doubles its capacity.
     */
    void
    insert(std::size_t i, const T &value)
    {
        DC_ASSERT(i <= count_, "ring buffer insert past the end");
        if (full())
            reserve(count_ + 1);
        ++count_;
        for (std::size_t j = count_ - 1; j > i; --j)
            (*this)[j] = (*this)[j - 1];
        (*this)[i] = value;
    }

    /**
     * Grow to at least @p capacity slots, keeping the contents. A ring
     * that grows at least doubles, so growing it a few slots at a time
     * reallocates only O(log n) times.
     */
    void
    reserve(std::size_t capacity)
    {
        if (capacity <= slots_.size())
            return;
        std::vector<T> slots(std::max(capacity, 2 * slots_.size()));
        for (std::size_t i = 0; i < count_; ++i)
            slots[i] = (*this)[i];
        slots_.swap(slots);
        head_ = 0;
    }

    void
    pop_front()
    {
        DC_ASSERT(!empty(), "pop from empty ring buffer");
        head_ = wrap(head_ + 1);
        --count_;
    }

    T &front() { return slots_[head_]; }
    const T &front() const { return slots_[head_]; }

    T &back() { return slots_[wrap(head_ + count_ - 1)]; }
    const T &back() const { return slots_[wrap(head_ + count_ - 1)]; }

    /** Element @p i positions behind the front (0 == front). */
    T &operator[](std::size_t i) { return slots_[wrap(head_ + i)]; }
    const T &operator[](std::size_t i) const
    {
        return slots_[wrap(head_ + i)];
    }

    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

  private:
    std::size_t
    wrap(std::size_t i) const
    {
        return i < slots_.size() ? i : i - slots_.size();
    }

    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_RING_BUFFER_H
