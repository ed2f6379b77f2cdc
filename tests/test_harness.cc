/**
 * @file
 * Tests for the system-assembly harness: controller factory, run
 * helpers, single-channel testbench guard rails, and the Table II
 * defaults of the multi-core builder.
 */

#include <gtest/gtest.h>

#include "cyclesim/cycle_ctrl.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "trafficgen/linear_gen.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using harness::CtrlModel;

TEST(HarnessTest, MakeControllerReturnsRequestedModel)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    auto ev = harness::makeController(
        sim, "ev", cfg, AddrRange(0, cfg.org.channelCapacity),
        CtrlModel::Event);
    auto cy = harness::makeController(
        sim, "cy", cfg, AddrRange(0, cfg.org.channelCapacity),
        CtrlModel::Cycle);
    EXPECT_NE(dynamic_cast<DRAMCtrl *>(ev.get()), nullptr);
    EXPECT_NE(dynamic_cast<cyclesim::CycleDRAMCtrl *>(cy.get()),
              nullptr);
}

TEST(HarnessTest, ToStringNames)
{
    EXPECT_STREQ(harness::toString(CtrlModel::Event), "event");
    EXPECT_STREQ(harness::toString(CtrlModel::Cycle), "cycle");
}

TEST(HarnessTest, RunUntilStopsOnPredicate)
{
    Simulator sim;
    Tick end = harness::runUntil(
        sim, [&] { return sim.curTick() >= fromUs(3); }, fromUs(1),
        fromUs(100));
    EXPECT_GE(end, fromUs(3));
    EXPECT_LT(end, fromUs(5));
}

TEST(HarnessTest, RunUntilHonoursBudget)
{
    Simulator sim;
    Tick end = harness::runUntil(
        sim, [] { return false; }, fromUs(1), fromUs(10));
    EXPECT_EQ(end, fromUs(10));
}

TEST(HarnessTest, SingleChannelRejectsSecondGenerator)
{
    setThrowOnError(true);
    harness::SingleChannelSystem tb(testutil::noRefreshConfig(),
                                    CtrlModel::Event);
    GenConfig gc;
    gc.numRequests = 1;
    tb.addGen<LinearGen>(gc);
    EXPECT_THROW(tb.addGen<LinearGen>(gc), std::runtime_error);
    setThrowOnError(false);
}

TEST(HarnessTest, EventCtrlAccessorGuardsModel)
{
    setThrowOnError(true);
    harness::SingleChannelSystem tb(testutil::noRefreshConfig(),
                                    CtrlModel::Cycle);
    EXPECT_THROW(tb.eventCtrl(), std::runtime_error);
    setThrowOnError(false);
}

TEST(HarnessTest, RunMeasuredResetsWindow)
{
    harness::SingleChannelSystem tb(testutil::noRefreshConfig(),
                                    CtrlModel::Event);
    GenConfig gc;
    gc.numRequests = 0; // unbounded
    gc.minITT = gc.maxITT = fromNs(20);
    tb.addGen<LinearGen>(gc);
    tb.runMeasured(fromUs(5), fromUs(10));
    // The measurement window excludes warm-up: utilisation reflects
    // only ~10 us of traffic and the window start is 5 us in.
    auto &ctrl = tb.eventCtrl();
    EXPECT_EQ(ctrl.statsWindowStart(), fromUs(5));
    EXPECT_GT(ctrl.busUtilisation(), 0.0);
}

TEST(HarnessTest, MultiCoreDefaultsMatchTableII)
{
    harness::MultiCoreConfig cfg;
    // Table II: 64 kB 2-way L1D, 2 ns hit, 6 MSHRs.
    EXPECT_EQ(cfg.l1.size, 64u * 1024);
    EXPECT_EQ(cfg.l1.assoc, 2u);
    EXPECT_EQ(cfg.l1.hitLatency, fromNs(2));
    EXPECT_EQ(cfg.l1.mshrs, 6u);
    // Table II: 512 kB 8-way L2, 12 ns hit, 16 MSHRs.
    EXPECT_EQ(cfg.l2.size, 512u * 1024);
    EXPECT_EQ(cfg.l2.assoc, 8u);
    EXPECT_EQ(cfg.l2.hitLatency, fromNs(12));
    EXPECT_EQ(cfg.l2.mshrs, 16u);
    // Table II core: 2 GHz, 6-wide dispatch, 8-wide commit, 40 ROB.
    EXPECT_EQ(cfg.core.clockPeriod, fromNs(0.5));
    EXPECT_EQ(cfg.core.dispatchWidth, 6u);
    EXPECT_EQ(cfg.core.commitWidth, 8u);
    EXPECT_EQ(cfg.core.robSize, 40u);
}

TEST(HarnessTest, MultiCoreValidatesShape)
{
    setThrowOnError(true);
    harness::MultiCoreConfig cfg;
    cfg.numCores = 0;
    EXPECT_THROW(
        harness::MultiCoreSystem(cfg, workloads::blackscholes()),
        std::runtime_error);
    setThrowOnError(false);
}

TEST(HarnessTest, MultiCoreClampsFootprintToSlice)
{
    // A 1-channel, 4-core system over 2 GB: canneal's 256 MB footprint
    // fits a 512 MB slice and must run without address overflow.
    harness::MultiCoreConfig cfg;
    cfg.numCores = 4;
    cfg.channels = 1;
    cfg.ctrl = testutil::noRefreshConfig();
    cfg.opsPerCore = 500;
    harness::MultiCoreSystem sys(cfg, workloads::canneal());
    sys.runToCompletion(fromUs(100000));
    EXPECT_TRUE(sys.core(3).done());
}

} // namespace
} // namespace dramctrl
