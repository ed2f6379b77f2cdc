/**
 * @file
 * Tests for the non-blocking cache: hits, misses, MSHR coalescing and
 * limits, LRU replacement, write-back of dirty victims, flow control,
 * and two-level hierarchies.
 */

#include <gtest/gtest.h>

#include "cpu/cache.hh"
#include "dram/dram_ctrl.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using testutil::TestRequestor;

CacheConfig
smallCache()
{
    CacheConfig cfg;
    cfg.size = 1024; // 8 sets x 2 ways x 64 B
    cfg.assoc = 2;
    cfg.blockSize = 64;
    cfg.hitLatency = fromNs(1);
    cfg.mshrs = 2;
    cfg.targetsPerMshr = 2;
    return cfg;
}

class CacheTest : public ::testing::Test
{
  protected:
    void
    build(const CacheConfig &ccfg)
    {
        sim = std::make_unique<Simulator>();
        cache = std::make_unique<Cache>(*sim, "cache", ccfg);
        DRAMCtrlConfig mcfg = testutil::bareTimingConfig();
        ctrl = std::make_unique<DRAMCtrl>(
            *sim, "ctrl", mcfg, AddrRange(0, mcfg.org.channelCapacity));
        cache->memSidePort().bind(ctrl->port());
        req = std::make_unique<TestRequestor>(*sim, "req");
        req->port().bind(cache->cpuSidePort());
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<Cache> cache;
    std::unique_ptr<DRAMCtrl> ctrl;
    std::unique_ptr<TestRequestor> req;
};

TEST_F(CacheTest, ColdMissThenHit)
{
    build(smallCache());
    auto miss = req->inject(0, MemCmd::ReadReq, 0x100, 8);
    auto hit = req->inject(fromUs(1), MemCmd::ReadReq, 0x108, 8);
    sim->run(fromUs(5));

    // The miss pays the DRAM round trip; the hit pays one lookup.
    EXPECT_GT(req->responseTick(miss), fromNs(30));
    EXPECT_EQ(req->responseTick(hit), fromUs(1) + fromNs(1));
    EXPECT_EQ(cache->cacheStats().misses.value(), 1.0);
    EXPECT_EQ(cache->cacheStats().hits.value(), 1.0);
    EXPECT_TRUE(cache->isCached(0x100));
}

TEST_F(CacheTest, MissesCoalesceOntoOneFill)
{
    build(smallCache());
    // Two requests to the same block before the fill returns.
    req->inject(0, MemCmd::ReadReq, 0x200, 8);
    req->inject(0, MemCmd::ReadReq, 0x220, 8);
    sim->run(fromUs(5));
    EXPECT_TRUE(req->allResponded());
    EXPECT_EQ(cache->cacheStats().misses.value(), 1.0);
    EXPECT_EQ(cache->cacheStats().mshrHits.value(), 1.0);
    // One fill read reached the DRAM.
    EXPECT_EQ(ctrl->ctrlStats().readReqs.value(), 1.0);
}

TEST_F(CacheTest, MshrTargetLimitBlocks)
{
    build(smallCache()); // 2 targets per MSHR
    req->inject(0, MemCmd::ReadReq, 0x200, 8);
    req->inject(0, MemCmd::ReadReq, 0x208, 8);
    req->inject(0, MemCmd::ReadReq, 0x210, 8); // third to same block
    sim->run(fromUs(5));
    EXPECT_TRUE(req->allResponded());
    EXPECT_GE(cache->cacheStats().blockedNoTarget.value(), 1.0);
    EXPECT_GE(req->retries(), 1u);
}

TEST_F(CacheTest, MshrCountLimitBlocks)
{
    build(smallCache()); // 2 MSHRs
    req->inject(0, MemCmd::ReadReq, 0x0, 8);
    req->inject(0, MemCmd::ReadReq, 0x1000, 8);
    req->inject(0, MemCmd::ReadReq, 0x2000, 8); // needs a third MSHR
    sim->run(fromUs(5));
    EXPECT_TRUE(req->allResponded());
    EXPECT_GE(cache->cacheStats().blockedNoMshr.value(), 1.0);
}

TEST_F(CacheTest, WriteAllocatesAndMarksDirty)
{
    build(smallCache());
    auto wr = req->inject(0, MemCmd::WriteReq, 0x300, 8);
    sim->run(fromUs(5));
    EXPECT_GT(req->responseTick(wr), 0u);
    EXPECT_TRUE(cache->isCached(0x300));
    EXPECT_TRUE(cache->isDirty(0x300));
    // Write-allocate: the fill was a read.
    EXPECT_EQ(ctrl->ctrlStats().readReqs.value(), 1.0);
    EXPECT_EQ(ctrl->ctrlStats().writeReqs.value(), 0.0);
}

TEST_F(CacheTest, DirtyVictimIsWrittenBack)
{
    build(smallCache()); // 8 sets: blocks 64*8 apart collide
    // Fill both ways of set 0 (addresses 0 and 0x200 map to set 0),
    // dirty one of them, then force an eviction with a third block.
    req->inject(0, MemCmd::WriteReq, 0x0, 8);
    req->inject(fromUs(1), MemCmd::ReadReq, 0x200, 8);
    req->inject(fromUs(2), MemCmd::ReadReq, 0x400, 8);
    sim->run(fromUs(10));
    EXPECT_TRUE(req->allResponded());
    EXPECT_EQ(cache->cacheStats().writebacks.value(), 1.0);
    EXPECT_EQ(ctrl->ctrlStats().writeReqs.value(), 1.0);
    EXPECT_FALSE(cache->isCached(0x0)); // LRU victim was the write
    EXPECT_TRUE(cache->isCached(0x400));
}

TEST_F(CacheTest, CleanVictimEvictsSilently)
{
    build(smallCache());
    req->inject(0, MemCmd::ReadReq, 0x0, 8);
    req->inject(fromUs(1), MemCmd::ReadReq, 0x200, 8);
    req->inject(fromUs(2), MemCmd::ReadReq, 0x400, 8);
    sim->run(fromUs(10));
    EXPECT_EQ(cache->cacheStats().writebacks.value(), 0.0);
    EXPECT_EQ(ctrl->ctrlStats().writeReqs.value(), 0.0);
}

TEST_F(CacheTest, LruKeepsRecentlyUsedBlock)
{
    build(smallCache());
    req->inject(0, MemCmd::ReadReq, 0x0, 8);
    req->inject(fromUs(1), MemCmd::ReadReq, 0x200, 8);
    // Touch 0x0 again so 0x200 becomes LRU.
    req->inject(fromUs(2), MemCmd::ReadReq, 0x0, 8);
    req->inject(fromUs(3), MemCmd::ReadReq, 0x400, 8);
    sim->run(fromUs(10));
    EXPECT_TRUE(cache->isCached(0x0));
    EXPECT_FALSE(cache->isCached(0x200));
}

TEST_F(CacheTest, MissRateFormula)
{
    build(smallCache());
    req->inject(0, MemCmd::ReadReq, 0x0, 8);
    req->inject(fromUs(1), MemCmd::ReadReq, 0x0, 8);
    req->inject(fromUs(1), MemCmd::ReadReq, 0x8, 8);
    sim->run(fromUs(10));
    EXPECT_NEAR(cache->cacheStats().missRate.value(), 1.0 / 3.0,
                1e-12);
    EXPECT_GT(cache->avgMissLatencyNs(), 0.0);
}

TEST_F(CacheTest, CrossBlockRequestPanics)
{
    setThrowOnError(true);
    build(smallCache());
    // The panic comes before the cache takes the packet, so the test
    // still owns it.
    auto pkt = std::make_unique<Packet>(MemCmd::ReadReq, 0x3c, 16, 0);
    EXPECT_THROW(req->port().sendTimingReq(pkt.get()), // crosses 0x40
                 std::runtime_error);
    setThrowOnError(false);
}

TEST_F(CacheTest, ConfigValidation)
{
    setThrowOnError(true);
    Simulator s;
    CacheConfig cfg = smallCache();
    cfg.blockSize = 48;
    EXPECT_THROW(Cache(s, "c1", cfg), std::runtime_error);

    cfg = smallCache();
    cfg.size = 1000; // not a whole number of sets
    EXPECT_THROW(Cache(s, "c2", cfg), std::runtime_error);

    cfg = smallCache();
    cfg.mshrs = 0;
    EXPECT_THROW(Cache(s, "c3", cfg), std::runtime_error);
    setThrowOnError(false);
}

TEST(CacheHierarchyTest, TwoLevelFillsBothLevels)
{
    Simulator sim;
    CacheConfig l1 = smallCache();
    CacheConfig l2 = smallCache();
    l2.size = 4096;
    l2.assoc = 4;
    l2.mshrs = 4;

    Cache l1c(sim, "l1", l1);
    Cache l2c(sim, "l2", l2);
    DRAMCtrlConfig mcfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "ctrl", mcfg,
                  AddrRange(0, mcfg.org.channelCapacity));
    TestRequestor req(sim, "req");

    req.port().bind(l1c.cpuSidePort());
    l1c.memSidePort().bind(l2c.cpuSidePort());
    l2c.memSidePort().bind(ctrl.port());

    auto cold = req.inject(0, MemCmd::ReadReq, 0x1000, 8);
    auto warm = req.inject(fromUs(1), MemCmd::ReadReq, 0x1008, 8);
    sim.run(fromUs(10));

    EXPECT_TRUE(l1c.isCached(0x1000));
    EXPECT_TRUE(l2c.isCached(0x1000));
    EXPECT_EQ(ctrl.ctrlStats().readReqs.value(), 1.0);
    // L1 hit beats L1->L2 round trip which beats DRAM round trip.
    EXPECT_LT(req.responseTick(warm) - fromUs(1),
              req.responseTick(cold));
}

} // namespace
} // namespace dramctrl
