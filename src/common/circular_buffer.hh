/**
 * @file
 * Fixed-capacity circular FIFO used for age-ordered hardware queues
 * (the core's instruction window, store queue, load queue).
 */

#ifndef NOSQ_COMMON_CIRCULAR_BUFFER_HH
#define NOSQ_COMMON_CIRCULAR_BUFFER_HH

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace nosq {

/**
 * Age-ordered circular buffer with stable logical indices.
 *
 * Entries are pushed at the tail and popped from the head. Logical
 * indices run [0, size()) from oldest to youngest, matching the
 * head-to-tail order a hardware age-ordered queue maintains.
 */
template <typename T>
class CircularBuffer
{
  public:
    explicit CircularBuffer(std::size_t capacity = 0)
        : slots(capacity)
    {
    }

    void
    setCapacity(std::size_t capacity)
    {
        nosq_assert(empty(), "resize of non-empty circular buffer");
        slots.assign(capacity, T());
        head = 0;
        count = 0;
    }

    std::size_t capacity() const { return slots.size(); }
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count == slots.size(); }

    /** Push a new youngest entry; the buffer must not be full. */
    T &
    pushBack(const T &value)
    {
        nosq_assert(!full(), "push to full circular buffer");
        std::size_t pos = physical(count);
        slots[pos] = value;
        ++count;
        return slots[pos];
    }

    /**
     * Construct a new youngest entry in its slot from @p args and
     * return it, so large entries are built once where they live
     * instead of being default-constructed, assigned, or built
     * outside and copied in.
     */
    template <typename... Args>
    T &
    emplaceBack(Args &&...args)
    {
        // The slot's previous occupant is reused without running its
        // destructor.
        static_assert(std::is_trivially_destructible_v<T>,
                      "emplaceBack reuses slots without destroying");
        nosq_assert(!full(), "push to full circular buffer");
        T *slot = ::new (&slots[physical(count)])
            T(std::forward<Args>(args)...);
        ++count;
        return *slot;
    }

    /** Pop the oldest entry; the buffer must not be empty. */
    T
    popFront()
    {
        nosq_assert(!empty(), "pop from empty circular buffer");
        T value = slots[head];
        ++head;
        if (head == slots.size())
            head = 0;
        --count;
        return value;
    }

    /**
     * Discard the oldest entry without copying it out (retirement
     * path for large entries).
     */
    void
    dropFront()
    {
        nosq_assert(!empty(), "dropFront from empty circular buffer");
        ++head;
        if (head == slots.size())
            head = 0;
        --count;
    }

    /** Discard the youngest entry (squash support). */
    void
    popBack()
    {
        nosq_assert(!empty(), "popBack from empty circular buffer");
        --count;
    }

    /**
     * Discard the youngest entries so that only the oldest @p n
     * remain (squash support: drops a whole young segment at once).
     */
    void
    truncate(std::size_t n)
    {
        nosq_assert(n <= count, "truncate beyond circular buffer size");
        count = n;
    }

    /** Oldest-first logical access. */
    T &
    at(std::size_t logical)
    {
        nosq_assert(logical < count, "circular buffer index OOB");
        return slots[physical(logical)];
    }

    const T &
    at(std::size_t logical) const
    {
        nosq_assert(logical < count, "circular buffer index OOB");
        return slots[physical(logical)];
    }

    T &front() { return at(0); }
    T &back() { return at(count - 1); }
    const T &front() const { return at(0); }
    const T &back() const { return at(count - 1); }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

  private:
    // On the cycle-loop hot path; a compare-and-subtract beats the
    // division the general modulo would need (capacities are not
    // required to be powers of two).
    std::size_t
    physical(std::size_t logical) const
    {
        std::size_t pos = head + logical;
        if (pos >= slots.size())
            pos -= slots.size();
        return pos;
    }

    std::vector<T> slots;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace nosq

#endif // NOSQ_COMMON_CIRCULAR_BUFFER_HH
