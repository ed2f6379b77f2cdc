/**
 * @file
 * Steady-state allocation counts of whole simulations.
 *
 * This file builds into its own executable because it replaces the
 * global operator new/delete with counting versions; linked into
 * dramctrl_tests they would replace the allocator of every other test
 * too. The counter is off except inside a measured window, so gtest,
 * system construction and warm-up allocate freely.
 *
 * The property pinned here (docs/PERFORMANCE.md section 2): once a
 * system has warmed up, simulating performs no general-purpose heap
 * allocation at all. Pools and fixed-capacity containers reuse
 * storage sized at construction or at the warm-up high-water mark.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "cpu/workload.hh"
#include "dram/dram_presets.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "sim/pool.hh"
#include "trafficgen/random_gen.hh"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::uint64_t> newCalls{0};

void *
countedAlloc(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        newCalls.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    if (counting.load(std::memory_order_relaxed))
        newCalls.fetch_add(1, std::memory_order_relaxed);
    auto a = static_cast<std::size_t>(align);
    // aligned_alloc wants a size that is a multiple of the alignment.
    std::size_t rounded = (size + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded == 0 ? a : rounded))
        return p;
    throw std::bad_alloc();
}

/** operator new calls made while @p body runs. */
template <typename F>
std::uint64_t
countNews(F &&body)
{
    newCalls.store(0);
    counting.store(true);
    body();
    counting.store(false);
    return newCalls.load();
}

} // namespace

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    try {
        return countedAlloc(size);
    } catch (const std::bad_alloc &) {
        return nullptr;
    }
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace dramctrl {
namespace {

TEST(SteadyStateAlloc, CounterSeesAllocations)
{
    // The measurement itself works: a real allocation is counted. The
    // volatile sink keeps the compiler from eliding the pair.
    static std::uint64_t *volatile sink = nullptr;
    std::uint64_t n = countNews([] {
        sink = new std::uint64_t(1);
        delete sink;
    });
    EXPECT_EQ(n, 1u);
}

TEST(SteadyStateAlloc, ClosedLoopCommitsWithoutAllocating)
{
    // The fig8/fig9 closed loop: four timing cores on canneal, private
    // L1s, a shared L2, two credit crossbars and one closed-page
    // DDR3-1333 channel on the event model.
    constexpr std::uint64_t kWarmOps = 40'000;
    constexpr std::uint64_t kMeasuredOps = 80'000;

    harness::MultiCoreConfig cfg;
    cfg.numCores = 4;
    cfg.channels = 1;
    cfg.ctrl = presets::ddr3_1333();
    cfg.ctrl.pagePolicy = PagePolicy::Closed;
    cfg.ctrl.addrMapping = AddrMapping::RoCoRaBaCh;
    cfg.model = harness::CtrlModel::Event;
    // Enough ops that no core finishes inside the measured window.
    cfg.opsPerCore = kWarmOps + kMeasuredOps;
    cfg.seed = 3;
    harness::MultiCoreSystem sys(cfg, workloads::canneal());

    auto committed = [&] {
        std::uint64_t total = 0;
        for (unsigned i = 0; i < cfg.numCores; ++i)
            total += sys.core(i).committed();
        return total;
    };
    std::function<bool()> warm = [&] { return committed() >= kWarmOps; };
    std::uint64_t target = 0;
    std::function<bool()> measured = [&] {
        return committed() >= target;
    };

    harness::runUntil(sys.sim(), warm, fromNs(100), fromUs(1'000'000));
    ASSERT_GE(committed(), kWarmOps) << "warm-up did not finish";
    target = committed() + kMeasuredOps;

    std::uint64_t news = countNews([&] {
        harness::runUntil(sys.sim(), measured, fromNs(100),
                          fromUs(1'000'000));
    });
    ASSERT_GE(committed(), target) << "measured phase did not finish";
    EXPECT_EQ(news, 0u) << "operator new calls while committing "
                        << kMeasuredOps << " ops";
}

TEST(SteadyStateAlloc, SingleChannelRandomGenRunsWithoutAllocating)
{
    // One channel fed by a random generator: the path the pooled
    // types were built for. Packet and DRAMPacket on the event model,
    // CycleTransaction on the cycle model, and BurstHelper where a
    // 128-byte request splits into two bursts.
    struct Input
    {
        harness::CtrlModel model;
        unsigned blockSize;
    };
    for (Input in : {Input{harness::CtrlModel::Event, 64},
                     Input{harness::CtrlModel::Cycle, 64},
                     Input{harness::CtrlModel::Event, 128},
                     Input{harness::CtrlModel::Cycle, 128}}) {
        SCOPED_TRACE(std::string(harness::toString(in.model)) + ", " +
                     std::to_string(in.blockSize) + " B requests");
        harness::SingleChannelSystem tb(presets::ddr3_1333(), in.model);
        GenConfig gc;
        gc.windowSize = 1 << 22;
        gc.blockSize = in.blockSize;
        gc.readPct = 70;
        gc.minITT = gc.maxITT = fromNs(3);
        gc.numRequests = 0;
        gc.seed = 5;
        auto &gen = tb.addGen<RandomGen>(gc);

        // Past one refresh interval, so refresh runs in both phases.
        tb.sim().run(fromUs(20));
        double answered = gen.genStats().recvResponses.value();

        std::uint64_t news =
            countNews([&] { tb.sim().run(fromUs(80)); });
        EXPECT_GT(gen.genStats().recvResponses.value(),
                  answered + 5000 * 64 / in.blockSize)
            << "the measured phase answered too few requests";
        EXPECT_EQ(news, 0u) << "operator new calls in the measured phase";
    }
}

TEST(PooledGrowth, BatchesDoubleAndRefillWithoutAllocating)
{
    struct Slotted : Pooled<Slotted>
    {
        std::uint64_t value = 0;
    };

    // A fresh thread, so Slotted's list starts empty whatever ran
    // before. An empty list grows by 64, then 128, then 256 slots,
    // one operator new each; a drained and refilled list makes none.
    std::thread([] {
        std::vector<Slotted *> held;
        held.reserve(64 + 128 + 1);
        auto make = [&](unsigned n) {
            return countNews([&] {
                for (unsigned i = 0; i < n; ++i)
                    held.push_back(new Slotted);
            });
        };
        EXPECT_EQ(make(1), 64u);
        EXPECT_EQ(make(63), 0u);
        EXPECT_EQ(make(1), 128u);
        EXPECT_EQ(make(127), 0u);
        EXPECT_EQ(make(1), 256u);
        for (Slotted *s : held)
            delete s;
        held.clear();
        EXPECT_EQ(make(64 + 128 + 1), 0u);
        for (Slotted *s : held)
            delete s;
    }).join();
}

} // namespace
} // namespace dramctrl
