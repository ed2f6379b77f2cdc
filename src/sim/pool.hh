/**
 * @file
 * Pooled<T>: a mixin whose operator new/delete use a per-thread freelist
 * of T-sized slots, for the types the steady state creates and destroys
 * millions of times (packets, controller bursts, transactions). The heap
 * is only touched while a thread's list grows towards the workload's
 * high-water mark; after warm-up a `new` is a pointer pop and a `delete`
 * a push. Array forms, and derived types that are not T-sized, stay on
 * the global allocator.
 *
 * The list is `thread_local`, so neither path synchronises. An object
 * deleted on another thread than the one that made it (the sharded
 * engine, sim/shard.hh, migrates the odd packet) joins the freeing
 * thread's list. Every slot is its own allocation, so a list can free
 * its slots when its thread exits.
 */

#ifndef DRAMCTRL_SIM_POOL_H
#define DRAMCTRL_SIM_POOL_H

#include <cstddef>
#include <new>

namespace dramctrl {

template <typename T>
class Pooled
{
  public:
    static void *
    operator new(std::size_t size)
    {
        if (size != sizeof(T)) // derived type: not slot-sized
            return ::operator new(size);
        Freelist &list = freelist();
        if (list.head == nullptr)
            list.grow();
        Slot *slot = list.head;
        list.head = slot->next;
        return slot;
    }

    static void
    operator delete(void *p, std::size_t size)
    {
        if (p == nullptr)
            return;
        if (size != sizeof(T)) {
            ::operator delete(p);
            return;
        }
        freelist().push(static_cast<Slot *>(p));
    }

  private:
    union Slot
    {
        Slot *next;
        unsigned char storage[sizeof(T)];
    };

    /** One thread's free slots, LIFO. */
    struct Freelist
    {
        static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__,
                      "a slot from ::operator new may underalign T");

        Freelist() = default;
        Freelist(const Freelist &) = delete;
        Freelist &operator=(const Freelist &) = delete;
        ~Freelist()
        {
            while (head != nullptr) {
                Slot *slot = head;
                head = slot->next;
                ::operator delete(slot);
            }
        }

        Slot *head = nullptr;
        std::size_t nextBatch = 64;

        void
        push(Slot *slot)
        {
            slot->next = head;
            head = slot;
        }

        /** Batches of 64, 128, 256... slots: few steps, some slack. */
        void
        grow()
        {
            for (std::size_t i = 0; i < nextBatch; ++i)
                push(static_cast<Slot *>(::operator new(sizeof(Slot))));
            nextBatch *= 2;
        }
    };

    static Freelist &
    freelist()
    {
        static thread_local Freelist list;
        return list;
    }
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_POOL_H
