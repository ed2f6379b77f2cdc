/**
 * @file
 * Tests for the timing core and workload profiles: IPC limits, the
 * memory-latency feedback loop (the property traces cannot capture),
 * ROB blocking, completion semantics, and the cycle accounting of
 * cores that sleep while stalled on memory.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "cpu/cache.hh"
#include "cpu/timing_core.hh"
#include "cpu/workload.hh"
#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "obs/stats_sampler.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

TEST(WorkloadTest, ProfilesResolve)
{
    for (const auto &name : workloads::names()) {
        WorkloadProfile p = workloads::byName(name);
        EXPECT_EQ(p.name, name);
        EXPECT_GT(p.memFraction, 0.0);
        EXPECT_LE(p.memFraction, 1.0);
        EXPECT_GE(p.readFraction, 0.0);
        EXPECT_LE(p.readFraction, 1.0);
        EXPECT_GT(p.footprintBytes, 0u);
    }
    setThrowOnError(true);
    EXPECT_THROW(workloads::byName("doom"), std::runtime_error);
    setThrowOnError(false);
}

TEST(WorkloadTest, CannealIsTheCacheHostileOne)
{
    // The Section IV-B case study depends on canneal having a large,
    // low-locality footprint.
    WorkloadProfile c = workloads::canneal();
    for (const auto &name : workloads::names()) {
        WorkloadProfile p = workloads::byName(name);
        EXPECT_LE(c.seqProb, p.seqProb);
        EXPECT_GE(c.footprintBytes, p.footprintBytes);
    }
}

/** Core driving an L1 + DRAM; returns the finished core's IPC. */
double
runCore(const WorkloadProfile &wl, std::uint64_t ops,
        Tick extra_mem_latency = 0)
{
    Simulator sim;
    CacheConfig l1;
    l1.size = 32 * 1024;
    l1.assoc = 2;
    l1.mshrs = 6;
    Cache cache(sim, "l1", l1);

    DRAMCtrlConfig mcfg = testutil::noRefreshConfig();
    mcfg.frontendLatency = fromNs(10) + extra_mem_latency;
    DRAMCtrl ctrl(sim, "ctrl", mcfg,
                  AddrRange(0, mcfg.org.channelCapacity));
    cache.memSidePort().bind(ctrl.port());

    CoreConfig ccfg;
    ccfg.numOps = ops;
    ccfg.seed = 5;
    TimingCore core(sim, "core", ccfg, wl, 0);
    core.dcachePort().bind(cache.cpuSidePort());

    harness::runUntil(sim, [&] { return core.done(); });
    EXPECT_TRUE(core.done());
    return core.ipc();
}

TEST(TimingCoreTest, CompletesConfiguredOps)
{
    Simulator sim;
    CacheConfig l1;
    l1.size = 32 * 1024;
    Cache cache(sim, "l1", l1);
    DRAMCtrlConfig mcfg = testutil::noRefreshConfig();
    DRAMCtrl ctrl(sim, "ctrl", mcfg,
                  AddrRange(0, mcfg.org.channelCapacity));
    cache.memSidePort().bind(ctrl.port());

    CoreConfig ccfg;
    ccfg.numOps = 5000;
    TimingCore core(sim, "core", ccfg, workloads::blackscholes(), 0);
    core.dcachePort().bind(cache.cpuSidePort());

    harness::runUntil(sim, [&] { return core.done(); });
    EXPECT_TRUE(core.done());
    EXPECT_GE(core.committed(), 5000u);
    EXPECT_GT(core.coreStats().memOps.value(), 0.0);
}

TEST(TimingCoreTest, IpcBoundedByCommitWidth)
{
    double ipc = runCore(workloads::blackscholes(), 20000);
    EXPECT_GT(ipc, 0.1);
    EXPECT_LE(ipc, 8.0);
}

TEST(TimingCoreTest, ComputeBoundBeatsMemoryBound)
{
    // Small-footprint, cache-friendly blackscholes must out-IPC the
    // cache-hostile canneal on the same system.
    double compute = runCore(workloads::blackscholes(), 20000);
    double memory = runCore(workloads::canneal(), 20000);
    EXPECT_GT(compute, 1.5 * memory);
}

TEST(TimingCoreTest, SlowerMemoryLowersIpc)
{
    // The feedback loop: added memory latency must reduce IPC for a
    // memory-bound workload.
    double fast = runCore(workloads::canneal(), 20000, 0);
    double slow = runCore(workloads::canneal(), 20000, fromNs(200));
    EXPECT_GT(fast, slow * 1.1);
}

TEST(TimingCoreTest, MemStallsAccumulateUnderPressure)
{
    Simulator sim;
    CacheConfig l1;
    l1.size = 1024; // tiny cache, constant misses
    l1.mshrs = 1;   // single outstanding miss
    Cache cache(sim, "l1", l1);
    DRAMCtrlConfig mcfg = testutil::noRefreshConfig();
    DRAMCtrl ctrl(sim, "ctrl", mcfg,
                  AddrRange(0, mcfg.org.channelCapacity));
    cache.memSidePort().bind(ctrl.port());

    CoreConfig ccfg;
    ccfg.numOps = 5000;
    TimingCore core(sim, "core", ccfg, workloads::canneal(), 0);
    core.dcachePort().bind(cache.cpuSidePort());

    harness::runUntil(sim, [&] { return core.done(); });
    EXPECT_GT(core.coreStats().memStallCycles.value(), 0.0);
}

/** Pass-through port pair that logs the requestor of every write. */
class WriteIdTap
{
  public:
    WriteIdTap() : cpuSide_(*this), memSide_(*this) {}

    ResponsePort &cpuSide() { return cpuSide_; }
    RequestPort &memSide() { return memSide_; }

    std::vector<RequestorId> writeIds;

  private:
    struct CpuSide : ResponsePort
    {
        explicit CpuSide(WriteIdTap &tap)
            : ResponsePort("tap.cpuSide"), tap_(tap)
        {}

        bool
        recvTimingReq(Packet *pkt) override
        {
            bool write = pkt->isWrite();
            RequestorId id = pkt->requestorId();
            if (!tap_.memSide_.sendTimingReq(pkt))
                return false;
            if (write)
                tap_.writeIds.push_back(id);
            return true;
        }

        void recvRespRetry() override { tap_.memSide_.sendRespRetry(); }

        WriteIdTap &tap_;
    };

    struct MemSide : RequestPort
    {
        explicit MemSide(WriteIdTap &tap)
            : RequestPort("tap.memSide"), tap_(tap)
        {}

        bool
        recvTimingResp(Packet *pkt) override
        {
            return tap_.cpuSide_.sendTimingResp(pkt);
        }

        void recvReqRetry() override { tap_.cpuSide_.sendReqRetry(); }

        WriteIdTap &tap_;
    };

    CpuSide cpuSide_;
    MemSide memSide_;
};

TEST(TimingCoreTest, WritebacksCarryTheEvictingRequestor)
{
    // A tiny L1 under canneal evicts dirty blocks: each writeback
    // carries the id of the fill that evicted it, here core 3's.
    Simulator sim;
    CacheConfig l1;
    l1.size = 1024;
    Cache cache(sim, "l1", l1);
    DRAMCtrlConfig mcfg = testutil::noRefreshConfig();
    DRAMCtrl ctrl(sim, "ctrl", mcfg,
                  AddrRange(0, mcfg.org.channelCapacity));
    WriteIdTap tap;
    cache.memSidePort().bind(tap.cpuSide());
    tap.memSide().bind(ctrl.port());

    CoreConfig ccfg;
    ccfg.numOps = 5000;
    TimingCore core(sim, "core", ccfg, workloads::canneal(), 3);
    core.dcachePort().bind(cache.cpuSidePort());

    harness::runUntil(sim, [&] { return core.done(); });
    ASSERT_GT(cache.cacheStats().writebacks.value(), 0.0);
    EXPECT_EQ(tap.writeIds,
              std::vector<RequestorId>(tap.writeIds.size(), 3));
    EXPECT_FALSE(tap.writeIds.empty());
}

TEST(TimingCoreTest, ValidatesConfig)
{
    setThrowOnError(true);
    Simulator sim;
    CoreConfig bad;
    bad.dispatchWidth = 0;
    EXPECT_THROW(TimingCore(sim, "c", bad, workloads::canneal(), 0),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(TimingCoreTest, RejectsZeroOpSize)
{
    // A zero op size would divide by zero drawing the next address.
    setThrowOnError(true);
    Simulator sim;
    WorkloadProfile wl = workloads::canneal();
    wl.opSize = 0;
    EXPECT_THROW(TimingCore(sim, "c", CoreConfig{}, wl, 0),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(MultiCoreSystemTest, RejectsOpSizeNotDividingTheL1Block)
{
    // 24-byte ops on 64-byte blocks: some op straddles two blocks.
    setThrowOnError(true);
    harness::MultiCoreConfig cfg;
    cfg.numCores = 1;
    cfg.ctrl = testutil::noRefreshConfig();
    WorkloadProfile wl = workloads::canneal();
    wl.opSize = 24;
    EXPECT_THROW(harness::MultiCoreSystem(cfg, wl), std::runtime_error);
    wl.opSize = 128;
    EXPECT_THROW(harness::MultiCoreSystem(cfg, wl), std::runtime_error);
    wl.opSize = 0;
    EXPECT_THROW(harness::MultiCoreSystem(cfg, wl), std::runtime_error);
    setThrowOnError(false);
}

TEST(MultiCoreSystemTest, ThreeCoresRunCannealToCompletion)
{
    // One channel split three ways is not a whole number of cache
    // blocks per core: the slices must still start block aligned, or
    // an op straddles an L1 block.
    harness::MultiCoreConfig cfg;
    cfg.numCores = 3;
    cfg.channels = 1;
    cfg.ctrl = presets::ddr3_1333();
    cfg.opsPerCore = 3000;
    harness::MultiCoreSystem sys(cfg, workloads::canneal());
    sys.runToCompletion();
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(sys.core(i).done()) << "core " << i;
    EXPECT_TRUE(sys.l2().idle());
}

TEST(MultiCoreSystemTest, RunsToCompletionAndReportsMetrics)
{
    harness::MultiCoreConfig cfg;
    cfg.numCores = 2;
    cfg.channels = 2;
    cfg.ctrl = testutil::noRefreshConfig();
    cfg.opsPerCore = 3000;
    harness::MultiCoreSystem sys(cfg, workloads::fluidanimate());
    sys.runToCompletion();

    EXPECT_TRUE(sys.core(0).done());
    EXPECT_TRUE(sys.core(1).done());
    EXPECT_GT(sys.aggregateIPC(), 0.0);
    EXPECT_GT(sys.l2MissLatencyNs(), 0.0);
    EXPECT_GE(sys.mem().avgBusUtil(), 0.0);
    EXPECT_LE(sys.mem().avgBusUtil(), 1.0);
    EXPECT_EQ(sys.mem().numChannels(), 2u);
}

TEST(MultiCoreSystemTest, BothControllerModelsComplete)
{
    for (auto model :
         {harness::CtrlModel::Event, harness::CtrlModel::Cycle}) {
        harness::MultiCoreConfig cfg;
        cfg.numCores = 2;
        cfg.channels = 1;
        cfg.ctrl = testutil::noRefreshConfig();
        cfg.model = model;
        cfg.opsPerCore = 2000;
        harness::MultiCoreSystem sys(cfg, workloads::x264());
        sys.runToCompletion();
        EXPECT_TRUE(sys.core(0).done())
            << harness::toString(model);
    }
}

/**
 * Cycle accounting of sleeping cores: four cores on canneal behind
 * 6-MSHR L1s and one closed-page channel spend most edges stalled on
 * memory, so most edges reach the statistics by lazy crediting rather
 * than a tick. Whatever the mix, cycles must count every core-clock
 * edge since the last reset (the cores never finish: no op budget).
 */
class CoreCycleAccountingTest : public ::testing::Test
{
  protected:
    CoreCycleAccountingTest() : sys(config(), workloads::canneal()) {}

    static harness::MultiCoreConfig
    config()
    {
        harness::MultiCoreConfig cfg;
        cfg.numCores = 4;
        cfg.ctrl = presets::ddr3_1333();
        cfg.ctrl.pagePolicy = PagePolicy::Closed;
        cfg.l1.mshrs = 6;
        cfg.opsPerCore = 0;
        return cfg;
    }

    /** Core-clock edges in (resetTick, now]; the first is at period. */
    double
    edgesSinceReset()
    {
        return static_cast<double>(sys.sim().curTick() / period -
                                   resetTick / period);
    }

    void
    expectEveryEdgeCounted(const std::string &when)
    {
        for (unsigned i = 0; i < 4; ++i) {
            const auto &st = sys.core(i).coreStats();
            EXPECT_EQ(st.cycles.value(), edgesSinceReset())
                << when << ", core " << i;
            EXPECT_LE(st.memStallCycles.value(), st.cycles.value())
                << when << ", core " << i;
        }
    }

    /** Step the run until every core sleeps at once. */
    void
    runUntilAllAsleep()
    {
        auto all_asleep = [this] {
            for (unsigned i = 0; i < 4; ++i)
                if (!sys.core(i).asleep())
                    return false;
            return true;
        };
        harness::runUntil(sys.sim(), all_asleep, 37, fromUs(10.0));
        ASSERT_TRUE(all_asleep());
    }

    harness::MultiCoreSystem sys;
    const Tick period = CoreConfig{}.clockPeriod;
    Tick resetTick = 0;
};

TEST_F(CoreCycleAccountingTest, CyclesCountEveryEdgeAcrossSleep)
{
    Simulator &sim = sys.sim();
    // Stop between edges and on them, at uneven steps.
    for (Tick step : {fromNs(1000.0) + 123, Tick(fromNs(777.0)),
                      fromNs(2500.0) + 250, Tick(fromNs(3000.0))}) {
        harness::runUntil(
            sim, [&, stop = sim.curTick() + step] {
                return sim.curTick() >= stop;
            },
            step);
        expectEveryEdgeCounted("at tick " +
                               std::to_string(sim.curTick()));
    }

    // Almost every edge was slept through rather than ticked: a core
    // clock event per edge and core would outnumber the edges.
    double total_cycles = 0;
    for (unsigned i = 0; i < 4; ++i)
        total_cycles += sys.core(i).coreStats().cycles.value();
    EXPECT_LE(3.0 * static_cast<double>(sim.eventq().numEventsServiced()),
              total_cycles)
        << sim.eventq().numEventsServiced() << " events";
}

TEST_F(CoreCycleAccountingTest, ResetAndDumpWhileAllCoresSleep)
{
    Simulator &sim = sys.sim();
    harness::runUntil(sim, [] { return false; }, fromUs(1.0), fromUs(2.0));

    // A reset while every core sleeps forgets the edges slept through
    // so far without crediting them to the fresh statistics.
    runUntilAllAsleep();
    sim.resetStats();
    resetTick = sim.curTick();
    std::ostringstream os;
    sim.dumpStatsJson(os);
    EXPECT_EQ(sim.rootStats().resolve("core0.cycles")->sampleValue(), 0.0);
    harness::runUntil(sim, [] { return false; }, fromUs(1.0), fromUs(3.0));
    expectEveryEdgeCounted("after a reset while asleep");

    // A dump while every core sleeps credits them once, not twice.
    runUntilAllAsleep();
    sim.dumpStatsJson(os);
    EXPECT_EQ(sim.rootStats().resolve("core2.cycles")->sampleValue(),
              edgesSinceReset());
    harness::runUntil(sim, [] { return false; }, fromUs(1.0), fromUs(3.0));
    expectEveryEdgeCounted("after a dump while asleep");
}

TEST_F(CoreCycleAccountingTest, SamplerRowAgreesWithDump)
{
    Simulator &sim = sys.sim();
    std::ostringstream csv;
    obs::StatsSampler sampler(sim, "sampler", fromNs(250.0), csv);
    ASSERT_TRUE(sampler.addStat("core1.cycles"));
    ASSERT_TRUE(sampler.addStat("core1.memStallCycles"));

    // Stop on a sampling tick with core1 asleep, so the sample has to
    // credit the edges it slept through just as the dump does.
    harness::runUntil(
        sim, [&] { return sim.curTick() > 0 && sys.core(1).asleep(); },
        sampler.interval(), fromUs(10.0));
    ASSERT_TRUE(sys.core(1).asleep());
    std::ostringstream os;
    sim.dumpStatsJson(os);
    auto value = [&](const char *path) {
        return std::to_string(static_cast<long long>(
            sim.rootStats().resolve(path)->sampleValue()));
    };
    std::string last = csv.str();
    last.pop_back(); // trailing newline
    last = last.substr(last.rfind('\n') + 1);
    EXPECT_EQ(last, std::to_string(sim.curTick()) + "," +
                        value("core1.cycles") + "," +
                        value("core1.memStallCycles"));
    expectEveryEdgeCounted("at a sampling tick");
}

} // namespace
} // namespace dramctrl
