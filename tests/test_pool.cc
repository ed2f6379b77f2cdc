/**
 * @file
 * Tests for the freelist object pools: slot reuse, counter accounting,
 * the Pooled mixin's new/delete routing, and the headline property —
 * a warmed-up simulation performs no fresh allocations at all. Also
 * the ring buffer's growing insert, which keeps crossbar inboxes
 * allocation-free once they reach their high-water mark.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "harness/testbench.hh"
#include "mem/packet.hh"
#include "sim/pool.hh"
#include "sim/ring_buffer.hh"
#include "trafficgen/random_gen.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

struct Payload
{
    std::uint64_t a;
    std::uint64_t b;
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

TEST(ObjectPoolTest, ReusesFreedSlots)
{
    ObjectPool<Payload> pool;
    void *p1 = pool.allocate();
    void *p2 = pool.allocate();
    EXPECT_NE(p1, p2);
    pool.deallocate(p2);
    pool.deallocate(p1);
    // LIFO freelist: the most recently freed slot comes back first.
    EXPECT_EQ(pool.allocate(), p1);
    EXPECT_EQ(pool.allocate(), p2);
}

TEST(ObjectPoolTest, CountsFreshVersusRecycled)
{
    ObjectPool<Payload> pool;
    void *p = pool.allocate();
    EXPECT_EQ(pool.stats().totalAllocs, 1u);
    EXPECT_EQ(pool.stats().freshAllocs, 1u);
    EXPECT_EQ(pool.stats().inUse, 1u);
    pool.deallocate(p);
    EXPECT_EQ(pool.stats().inUse, 0u);
    pool.allocate();
    EXPECT_EQ(pool.stats().totalAllocs, 2u);
    EXPECT_EQ(pool.stats().freshAllocs, 1u) << "slot not recycled";
}

TEST(ObjectPoolTest, GrowsAcrossChunksWithDistinctSlots)
{
    ObjectPool<Payload> pool;
    std::set<void *> seen;
    std::vector<void *> held;
    for (int i = 0; i < 500; ++i) {
        void *p = pool.allocate();
        EXPECT_TRUE(seen.insert(p).second) << "slot handed out twice";
        held.push_back(p);
    }
    EXPECT_EQ(pool.stats().inUse, 500u);
    EXPECT_GE(pool.stats().capacity, 500u);
    for (void *p : held)
        pool.deallocate(p);
    // Draining and refilling must stay within the existing capacity.
    std::size_t cap = pool.stats().capacity;
    for (int i = 0; i < 500; ++i)
        pool.allocate();
    EXPECT_EQ(pool.stats().capacity, cap);
    EXPECT_EQ(pool.stats().freshAllocs, 500u);
}

TEST(ObjectPoolTest, PooledMixinRoutesNewAndDelete)
{
    const PoolStats &st = Packet::poolStats();
    std::uint64_t total_before = st.totalAllocs;
    auto *pkt = new Packet(MemCmd::ReadReq, 0x40, 64, 0);
    EXPECT_EQ(st.totalAllocs, total_before + 1);
    EXPECT_GE(st.inUse, 1u);
    void *addr = pkt;
    delete pkt;
    // The freed slot is at the freelist head, so an immediate
    // allocation gets the same storage back.
    auto *pkt2 = new Packet(MemCmd::WriteReq, 0x80, 64, 0);
    EXPECT_EQ(static_cast<void *>(pkt2), addr);
    std::uint64_t fresh_before = st.freshAllocs;
    delete pkt2;
    EXPECT_EQ(st.freshAllocs, fresh_before);
}

TEST(ObjectPoolTest, SteadyStateRunsAllocationFree)
{
    // The acceptance bar for the pooling work: once the pools have
    // reached their high-water marks, a simulation drives every
    // Packet allocation through the freelists. The first run is the
    // warm-up; an identical second run must not carve any fresh
    // storage (the fresh-alloc counter and capacity stay flat).
    auto run = [] {
        harness::SingleChannelSystem tb(testutil::noRefreshConfig(),
                                        harness::CtrlModel::Event);
        GenConfig gc;
        gc.windowSize = 1 << 22;
        gc.readPct = 50;
        gc.minITT = gc.maxITT = fromNs(3);
        gc.numRequests = 4000;
        gc.seed = 7;
        auto &gen = tb.addGen<RandomGen>(gc);
        tb.runToCompletion([&] { return gen.done(); },
                           fromUs(100000));
    };

    run(); // warm-up: pools grow to the workload's high-water mark

    std::uint64_t fresh = Packet::poolStats().freshAllocs;
    std::uint64_t cap = Packet::poolStats().capacity;
    std::uint64_t total = Packet::poolStats().totalAllocs;
    std::size_t in_use = Packet::poolStats().inUse;

    run(); // identical workload: must recycle everything

    EXPECT_GT(Packet::poolStats().totalAllocs, total)
        << "the run allocated packets";
    EXPECT_EQ(Packet::poolStats().freshAllocs, fresh)
        << "steady state carved fresh packet storage";
    EXPECT_EQ(Packet::poolStats().capacity, cap)
        << "steady state grew the packet pool";
    EXPECT_EQ(Packet::poolStats().inUse, in_use)
        << "packets leaked across a full run";
}

} // namespace
} // namespace dramctrl
