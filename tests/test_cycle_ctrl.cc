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
#include "dram/cmd_log.hh"
#include "dram/protocol_checker.hh"
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

/**
 * The fatal() message of building a cycle controller on @p cfg, or ""
 * when it builds.
 */
std::string
cycleCtorFatal(const DRAMCtrlConfig &cfg)
{
    setThrowOnError(true);
    std::string what;
    try {
        Simulator s;
        CycleDRAMCtrl ctrl(s, "ctrl", cfg,
                           AddrRange(0, cfg.org.channelCapacity));
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    setThrowOnError(false);
    return what;
}

/**
 * The page-policy rows of CycleDRAMCtrl::unsupportedFeature(): the
 * adaptive policies are the event model's own.
 */
TEST_F(CycleCtrlTest, AdaptivePoliciesRejected)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    for (PagePolicy p :
         {PagePolicy::OpenAdaptive, PagePolicy::ClosedAdaptive}) {
        cfg.pagePolicy = p;
        EXPECT_STREQ(CycleDRAMCtrl::unsupportedFeature(cfg), toString(p));
        EXPECT_NE(cycleCtorFatal(cfg).find(toString(p)),
                  std::string::npos)
            << toString(p);
    }
}

/**
 * The low-power and per-rank refresh rows: the cycle model refuses
 * them with a fatal naming the feature instead of silently simulating
 * without them. (The refmgr-pb row is PluginChainTest's.)
 */
TEST_F(CycleCtrlTest, LowPowerAndPerRankRefreshRejected)
{
    DRAMCtrlConfig power_down = testutil::bareTimingConfig();
    power_down.enablePowerDown = true;
    DRAMCtrlConfig self_refresh = power_down;
    self_refresh.enableSelfRefresh = true;
    self_refresh.selfRefreshDelay = fromUs(1);
    DRAMCtrlConfig per_rank = testutil::bareTimingConfig();
    per_rank.perRankRefresh = true;

    const std::pair<DRAMCtrlConfig, const char *> rows[] = {
        {power_down, "power-down"},
        {self_refresh, "self-refresh"},
        {per_rank, "per-rank refresh"},
    };
    for (const auto &[cfg, feature] : rows) {
        EXPECT_STREQ(CycleDRAMCtrl::unsupportedFeature(cfg), feature);
        EXPECT_NE(cycleCtorFatal(cfg).find(feature), std::string::npos)
            << feature;
    }
    EXPECT_EQ(CycleDRAMCtrl::unsupportedFeature(
                  testutil::bareTimingConfig()),
              nullptr);
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

/**
 * The comparator is clocked through idle gaps, as DRAMSim2 is, so a
 * long gap's refreshes are issued and logged like busy-time ones: one
 * REF per rank every tREFI from the first to the end of the run, and
 * the protocol checker finds nothing in the stream.
 */
TEST_F(CycleCtrlTest, IdleGapRefreshesEveryInterval)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.timing.tREFI = fromUs(1.0);
    build(cfg);
    CmdLogger logger;
    ctrl->setCmdLogger(&logger);
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0));
    // Long idle gap, then another request.
    req->inject(fromUs(50), MemCmd::ReadReq, addrOf(0, 1));
    const Tick end = fromUs(60);
    sim->run(end);
    EXPECT_TRUE(req->allResponded());

    // A REF waits at most for a precharge and its tRP, plus a few
    // cycles of quantisation.
    const Tick refi = cfg.effectiveREFI();
    const Tick slack = cfg.timing.tRP + 4 * cfg.timing.tCK;
    for (unsigned r = 0; r < cfg.org.ranksPerChannel; ++r) {
        std::vector<Tick> refs;
        for (const CmdRecord &rec : logger.log()) {
            if (rec.cmd == DRAMCmd::Ref && rec.rank == r)
                refs.push_back(rec.tick);
        }
        // The stats count one refresh per all-rank REF.
        EXPECT_EQ(ctrl->ctrlStats().numRefreshes.value(),
                  static_cast<double>(refs.size()));
        ASSERT_FALSE(refs.empty()) << "rank " << r;
        EXPECT_LE(refs.front(), refi + slack) << "rank " << r;
        EXPECT_GE(refs.back(), end - refi - slack) << "rank " << r;
        for (std::size_t i = 1; i < refs.size(); ++i) {
            EXPECT_GE(refs[i] - refs[i - 1], refi - cfg.timing.tCK)
                << "rank " << r << " REF " << i;
            EXPECT_LE(refs[i] - refs[i - 1], refi + slack)
                << "rank " << r << " REF " << i;
        }
    }

    ProtocolChecker checker(cfg.org, cfg.timing);
    auto v = checker.check(logger.log());
    EXPECT_TRUE(v.empty()) << v.size() << " violations, first: "
                           << (v.empty() ? "" : v.front().toString());
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

} // namespace
} // namespace dramctrl
