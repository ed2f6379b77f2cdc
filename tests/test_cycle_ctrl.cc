/**
 * @file
 * Tests for the cycle-based (DRAMSim2-style) comparator controller.
 * Cycle quantisation makes exact-tick equalities brittle, so latency
 * assertions use protocol lower bounds and small command-scheduling
 * allowances instead.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "cyclesim/cycle_ctrl.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using cyclesim::CycleDRAMCtrl;
using testutil::TestRequestor;

class CycleCtrlTest : public ::testing::Test
{
  protected:
    void
    build(DRAMCtrlConfig cfg)
    {
        sim = std::make_unique<Simulator>();
        ctrl = std::make_unique<CycleDRAMCtrl>(
            *sim, "ctrl", cfg, AddrRange(0, cfg.org.channelCapacity));
        req = std::make_unique<TestRequestor>(*sim, "req");
        req->port().bind(ctrl->port());
    }

    static Addr
    addrOf(unsigned bank, std::uint64_t row, std::uint64_t col = 0)
    {
        return ((row * 8 + bank) * 16 + col) * 64;
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<CycleDRAMCtrl> ctrl;
    std::unique_ptr<TestRequestor> req;
};

TEST_F(CycleCtrlTest, SingleReadLatencyBounds)
{
    build(testutil::bareTimingConfig());
    auto id = req->inject(0, MemCmd::ReadReq, addrOf(0, 0));
    sim->run(fromUs(10));
    Tick resp = req->responseTick(id);
    ASSERT_GT(resp, 0u);
    // Protocol floor: tRCD + tCL + tBURST (cycle-quantised upward).
    EXPECT_GE(resp, fromNs(13.75 + 13.75 + 6));
    // Ceiling: floor plus a handful of scheduling cycles.
    EXPECT_LE(resp, fromNs(13.75 + 13.75 + 6) + 8 * fromNs(1.5));
}

TEST_F(CycleCtrlTest, RowHitsPipelineOnTheBus)
{
    build(testutil::bareTimingConfig());
    std::vector<std::uint64_t> ids;
    for (unsigned i = 0; i < 8; ++i)
        ids.push_back(req->inject(0, MemCmd::ReadReq, addrOf(0, 0, i)));
    sim->run(fromUs(10));
    Tick first = req->responseTick(ids.front());
    Tick last = req->responseTick(ids.back());
    // Seven additional bursts, each 4 cycles of data plus at most a
    // couple of scheduling cycles.
    EXPECT_GE(last - first, 7 * fromNs(6));
    EXPECT_LE(last - first, 7 * fromNs(6) + 14 * fromNs(1.5));
    EXPECT_GE(ctrl->ctrlStats().readRowHits.value(), 7.0);
}

TEST_F(CycleCtrlTest, RowConflictPaysPrechargeActivate)
{
    build(testutil::bareTimingConfig());
    auto a = req->inject(0, MemCmd::ReadReq, addrOf(0, 0));
    auto b = req->inject(0, MemCmd::ReadReq, addrOf(0, 1));
    sim->run(fromUs(10));
    // The conflict needs at least tRAS + tRP + tRCD + tCL + tBURST.
    EXPECT_GE(req->responseTick(b) - 0,
              fromNs(35 + 13.75 + 13.75 + 13.75 + 6));
    EXPECT_LT(req->responseTick(a), req->responseTick(b));
}

TEST_F(CycleCtrlTest, EarlyWriteResponse)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.frontendLatency = fromNs(10);
    build(cfg);
    auto id = req->inject(0, MemCmd::WriteReq, addrOf(0, 0));
    sim->run(fromUs(10));
    EXPECT_EQ(req->responseTick(id), fromNs(10));
    // The write still reaches the DRAM.
    EXPECT_EQ(ctrl->ctrlStats().bytesWritten.value(), 64.0);
}

TEST_F(CycleCtrlTest, InterleavesReadsAndWritesInOrder)
{
    // No write drain: a write between two reads is serviced between
    // them (the architectural contrast with the event model).
    build(testutil::bareTimingConfig());
    auto r1 = req->inject(0, MemCmd::ReadReq, addrOf(0, 0, 0));
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0, 1));
    auto r2 = req->inject(0, MemCmd::ReadReq, addrOf(0, 0, 2));
    sim->run(fromUs(10));
    // r2 observes the write's bus time plus tWTR before its column
    // command: strictly more than one burst after r1.
    EXPECT_GE(req->responseTick(r2) - req->responseTick(r1),
              fromNs(6 + 7.5));
}

TEST_F(CycleCtrlTest, TransactionQueueBackpressure)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.readBufferSize = 2;
    cfg.writeBufferSize = 2; // unified queue limit = 4
    cfg.minWritesPerSwitch = 1;
    build(cfg);
    for (unsigned i = 0; i < 12; ++i)
        req->inject(0, MemCmd::ReadReq, addrOf(0, i));
    sim->run(fromUs(50));
    EXPECT_TRUE(req->allResponded());
    EXPECT_GE(req->retries(), 1u);
    EXPECT_GE(ctrl->ctrlStats().numRetries.value(), 1.0);
}

TEST_F(CycleCtrlTest, ClosedPageAutoPrecharges)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.pagePolicy = PagePolicy::Closed;
    cfg.addrMapping = AddrMapping::RoCoRaBaCh;
    build(cfg);
    for (unsigned i = 0; i < 4; ++i)
        req->inject(0, MemCmd::ReadReq,
                    static_cast<Addr>(i) * 64 * 8); // bank 0, col i
    sim->run(fromUs(10));
    EXPECT_EQ(ctrl->ctrlStats().numActs.value(), 4.0);
    EXPECT_EQ(ctrl->ctrlStats().numPrecharges.value(), 4.0);
    EXPECT_EQ(ctrl->ctrlStats().readRowHits.value(), 0.0);
}

TEST_F(CycleCtrlTest, AdaptivePoliciesRejected)
{
    setThrowOnError(true);
    Simulator s;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.pagePolicy = PagePolicy::OpenAdaptive;
    EXPECT_THROW(CycleDRAMCtrl(s, "ctrl", cfg,
                               AddrRange(0, cfg.org.channelCapacity)),
                 std::runtime_error);
    setThrowOnError(false);
}

/**
 * Low-power states and per-rank refresh are event-model features: the
 * cycle model refuses them with a fatal naming the option instead of
 * silently simulating without them.
 */
TEST_F(CycleCtrlTest, LowPowerAndPerRankRefreshRejected)
{
    auto construct = [](const DRAMCtrlConfig &cfg) {
        Simulator s;
        CycleDRAMCtrl ctrl(s, "ctrl", cfg,
                           AddrRange(0, cfg.org.channelCapacity));
    };
    auto fatalMessage = [&](const DRAMCtrlConfig &cfg) {
        try {
            construct(cfg);
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string();
    };

    setThrowOnError(true);
    DRAMCtrlConfig power_down = testutil::bareTimingConfig();
    power_down.enablePowerDown = true;
    EXPECT_THROW(construct(power_down), std::runtime_error);
    EXPECT_NE(fatalMessage(power_down).find("enablePowerDown"),
              std::string::npos);

    DRAMCtrlConfig self_refresh = power_down;
    self_refresh.enableSelfRefresh = true;
    self_refresh.selfRefreshDelay = fromUs(1);
    EXPECT_THROW(construct(self_refresh), std::runtime_error);
    EXPECT_NE(fatalMessage(self_refresh).find("enableSelfRefresh"),
              std::string::npos);

    DRAMCtrlConfig per_rank = testutil::bareTimingConfig();
    per_rank.perRankRefresh = true;
    EXPECT_THROW(construct(per_rank), std::runtime_error);
    EXPECT_NE(fatalMessage(per_rank).find("perRankRefresh"),
              std::string::npos);
    setThrowOnError(false);
}

TEST_F(CycleCtrlTest, RefreshHappensUnderLoad)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.timing.tREFI = fromUs(1.0);
    build(cfg);
    // Keep the controller busy for ~5 refresh intervals.
    Tick t = 0;
    for (unsigned i = 0; i < 800; ++i) {
        req->inject(t, MemCmd::ReadReq, addrOf(i % 8, (i / 8) % 64));
        t += fromNs(6);
    }
    sim->run(fromUs(100));
    EXPECT_TRUE(req->allResponded());
    EXPECT_GE(ctrl->ctrlStats().numRefreshes.value(), 4.0);
}

TEST_F(CycleCtrlTest, IdleGapFastForwardsRefreshes)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.timing.tREFI = fromUs(1.0);
    build(cfg);
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0));
    // Long idle gap, then another request.
    req->inject(fromUs(50), MemCmd::ReadReq, addrOf(0, 1));
    sim->run(fromUs(100));
    EXPECT_TRUE(req->allResponded());
    // ~50 refresh intervals passed; they must be accounted without the
    // controller having ticked through the whole gap.
    EXPECT_GE(ctrl->ctrlStats().numRefreshes.value(), 40.0);
    Tick busy_ticks =
        ctrl->cyclesTicked() * cfg.timing.tCK;
    EXPECT_LT(busy_ticks, fromUs(10));
}

TEST_F(CycleCtrlTest, MultiBurstTransactionsComplete)
{
    build(testutil::bareTimingConfig());
    auto id = req->inject(0, MemCmd::ReadReq, addrOf(0, 0), 256);
    sim->run(fromUs(10));
    EXPECT_TRUE(req->allResponded());
    (void)id;
    EXPECT_EQ(ctrl->ctrlStats().readBursts.value(), 4.0);
    EXPECT_EQ(ctrl->ctrlStats().bytesRead.value(), 256.0);
}

TEST_F(CycleCtrlTest, ConservationUnderRandomLoad)
{
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    cfg.readBufferSize = 8;
    cfg.writeBufferSize = 8;
    cfg.minWritesPerSwitch = 4;
    build(cfg);
    Random rng(7);
    unsigned injected = 0;
    for (Tick t = 0; t < fromUs(3); t += rng.uniform(2000, 12000)) {
        req->inject(t,
                    rng.chance(0.5) ? MemCmd::ReadReq
                                    : MemCmd::WriteReq,
                    rng.uniform(0, 2047) * 64);
        ++injected;
    }
    sim->run(fromUs(200));
    EXPECT_TRUE(req->allResponded());
    EXPECT_EQ(req->responses().size(), injected);
    EXPECT_TRUE(ctrl->idle());
}

TEST_F(CycleCtrlTest, BusUtilisationBounded)
{
    build(testutil::bareTimingConfig());
    for (unsigned i = 0; i < 64; ++i)
        req->inject(0, MemCmd::ReadReq, addrOf(0, 0, i % 16));
    sim->run(fromUs(10));
    EXPECT_GT(ctrl->busUtilisation(), 0.0);
    EXPECT_LE(ctrl->busUtilisation(), 1.0);
}

TEST_F(CycleCtrlTest, TicksOnlyWhileBusy)
{
    build(testutil::noRefreshConfig());
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0));
    sim->run(fromUs(100));
    // The controller must have gone idle after the single request: the
    // cycle count stays tiny compared to the simulated window.
    EXPECT_LT(ctrl->cyclesTicked(), 200u);
}

} // namespace
} // namespace dramctrl
