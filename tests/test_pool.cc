/**
 * @file
 * Tests for the Pooled freelist's slot reuse and the ring buffer's
 * growing insert, which keeps crossbar inboxes allocation-free once
 * they reach their high-water mark. That a warmed-up simulation makes
 * no heap allocation at all is pinned by tests/test_alloc_free.cc.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include "mem/packet.hh"
#include "sim/pool.hh"
#include "sim/ring_buffer.hh"

namespace dramctrl {
namespace {

struct Payload : Pooled<Payload>
{
    Payload(std::uint64_t a_, std::uint64_t b_) : a(a_), b(b_) {}

    std::uint64_t a;
    std::uint64_t b;
};

/** Derives from a pooled type but is not Payload-sized. */
struct WidePayload : Payload
{
    WidePayload(std::uint64_t a_, std::uint64_t b_, std::uint64_t c_)
        : Payload(a_, b_), c(c_)
    {
    }

    std::uint64_t c;
};

std::vector<int>
contents(const RingBuffer<int> &ring)
{
    std::vector<int> v;
    for (std::size_t i = 0; i < ring.size(); ++i)
        v.push_back(ring[i]);
    return v;
}

TEST(RingBufferTest, InsertKeepsOrderAcrossWrapAndGrowth)
{
    RingBuffer<int> ring; // no slots: the first insert grows it
    ring.insert(0, 2);
    ring.insert(0, 0);
    ring.insert(1, 1);
    EXPECT_EQ(contents(ring), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(ring.capacity(), 4u);

    // Fill the four slots with the front moved off slot 0, so the
    // back wraps; a full ring doubles before it inserts.
    ring.pop_front();
    ring.insert(ring.size(), 3);
    ring.insert(ring.size(), 4);
    ASSERT_TRUE(ring.full());
    ring.insert(2, 9);
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(contents(ring), (std::vector<int>{1, 2, 9, 3, 4}));

    // A middle insert that shifts elements across the wrap point.
    ring.pop_front();
    ring.pop_front();
    for (int v : {5, 6, 7, 8})
        ring.insert(ring.size(), v);
    ring.insert(1, 0);
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.capacity(), 8u);
    EXPECT_EQ(contents(ring), (std::vector<int>{9, 0, 3, 4, 5, 6, 7, 8}));
}

TEST(PooledTest, NewHandsOutTheLastFreedSlot)
{
    auto *p1 = new Payload{1, 2};
    auto *p2 = new Payload{3, 4};
    EXPECT_NE(p1, p2);
    void *a1 = p1;
    void *a2 = p2;
    delete p2;
    delete p1;
    // LIFO freelist: the most recently freed slot comes back first.
    auto *q1 = new Payload{5, 6};
    auto *q2 = new Payload{7, 8};
    EXPECT_EQ(static_cast<void *>(q1), a1);
    EXPECT_EQ(static_cast<void *>(q2), a2);
    delete q1;
    delete q2;
}

TEST(PooledTest, LiveObjectsNeverShareASlot)
{
    // 500 live objects span several growth batches; each keeps its
    // own value, so no two share storage.
    std::vector<Payload *> held;
    std::set<void *> seen;
    for (std::uint64_t i = 0; i < 500; ++i) {
        held.push_back(new Payload{i, ~i});
        EXPECT_TRUE(seen.insert(held.back()).second)
            << "slot handed out twice";
    }
    for (std::uint64_t i = 0; i < held.size(); ++i) {
        EXPECT_EQ(held[i]->a, i);
        EXPECT_EQ(held[i]->b, ~i);
        delete held[i];
    }
}

TEST(PooledTest, WiderDerivedTypeBypassesTheFreelist)
{
    auto *p = new Payload{1, 2};
    void *freed = p;
    delete p;
    // A wider object cannot fit a Payload slot: it neither takes the
    // freed slot nor leaves its own storage on the list.
    auto *w = new WidePayload{3, 4, 5};
    EXPECT_NE(static_cast<void *>(w), freed);
    EXPECT_EQ(w->c, 5u);
    delete w;
    auto *q = new Payload{6, 7};
    EXPECT_EQ(static_cast<void *>(q), freed);
    delete q;
}

TEST(PooledTest, FreedSlotIsNotHandedOutOnAnotherThread)
{
    auto *p = new Payload{1, 2};
    void *freed = p;
    delete p;
    // The slot sits on this thread's list; a worker grows its own.
    void *worker_slot = nullptr;
    std::thread([&] {
        auto *w = new Payload{3, 4};
        worker_slot = w;
        delete w;
    }).join();
    EXPECT_NE(worker_slot, freed);
    auto *q = new Payload{5, 6};
    EXPECT_EQ(static_cast<void *>(q), freed);
    delete q;
}

TEST(PooledTest, PacketsReuseTheirFreedSlot)
{
    // Packet is pooled: a freed packet's storage is the next one's.
    auto *pkt = new Packet(MemCmd::ReadReq, 0x40, 64, 0);
    void *addr = pkt;
    delete pkt;
    auto *pkt2 = new Packet(MemCmd::WriteReq, 0x80, 64, 0);
    EXPECT_EQ(static_cast<void *>(pkt2), addr);
    EXPECT_EQ(pkt2->addr(), 0x80u);
    delete pkt2;
}

} // namespace
} // namespace dramctrl
