/**
 * @file
 * Behavioural tests for the event-based controller: queue flow control,
 * write merging, the write-drain state machine, scheduler policies,
 * burst chopping for narrow interfaces, and packet conservation.
 */

#include <gtest/gtest.h>

#include "dram/cmd_log.hh"
#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using testutil::TestRequestor;

class DramCtrlTest : public ::testing::Test
{
  protected:
    void
    build(DRAMCtrlConfig cfg)
    {
        sim = std::make_unique<Simulator>();
        ctrl = std::make_unique<DRAMCtrl>(
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
    std::unique_ptr<DRAMCtrl> ctrl;
    std::unique_ptr<TestRequestor> req;
};

TEST_F(DramCtrlTest, FullReadQueuePushesBack)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.readBufferSize = 4;
    build(cfg);
    // Inject more reads at one tick than the queue holds.
    for (unsigned i = 0; i < 8; ++i)
        req->inject(0, MemCmd::ReadReq, addrOf(0, i));
    sim->run(fromUs(50));
    EXPECT_TRUE(req->allResponded());
    EXPECT_GE(req->retries(), 1u);
    EXPECT_GE(ctrl->ctrlStats().numRdRetry.value(), 1.0);
    EXPECT_EQ(req->responses().size(), 8u);
}

TEST_F(DramCtrlTest, FullWriteQueuePushesBack)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.writeBufferSize = 4;
    cfg.minWritesPerSwitch = 2;
    build(cfg);
    for (unsigned i = 0; i < 10; ++i)
        req->inject(0, MemCmd::WriteReq, addrOf(0, i));
    sim->run(fromUs(50));
    EXPECT_TRUE(req->allResponded());
    EXPECT_GE(ctrl->ctrlStats().numWrRetry.value(), 1.0);
}

TEST_F(DramCtrlTest, WritesToSameBurstMerge)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.writeLowThreshold = 0.5; // keep writes parked
    build(cfg);
    // Two half-burst writes into the same 64-byte burst window.
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0), 32);
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0) + 32, 32);
    sim->run(fromUs(1));
    EXPECT_EQ(ctrl->ctrlStats().writeBursts.value(), 2.0);
    EXPECT_EQ(ctrl->ctrlStats().mergedWrBursts.value(), 1.0);
    EXPECT_EQ(ctrl->writeQueueSize(), 1u);
}

TEST_F(DramCtrlTest, DistinctBurstsDoNotMerge)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.writeLowThreshold = 0.5;
    build(cfg);
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0, 0));
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0, 1));
    sim->run(fromUs(1));
    EXPECT_EQ(ctrl->ctrlStats().mergedWrBursts.value(), 0.0);
    EXPECT_EQ(ctrl->writeQueueSize(), 2u);
}

TEST_F(DramCtrlTest, MergedWriteCoverageForwardsWiderRead)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.frontendLatency = fromNs(10);
    cfg.writeLowThreshold = 0.5;
    build(cfg);
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0), 32);
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0) + 32, 32);
    // Read covering the whole merged burst is forwarded.
    auto rd = req->inject(fromNs(50), MemCmd::ReadReq, addrOf(0, 0), 64);
    sim->run(fromUs(1));
    EXPECT_EQ(req->responseTick(rd), fromNs(50) + fromNs(10));
    EXPECT_EQ(ctrl->ctrlStats().servicedByWrQ.value(), 1.0);
}

TEST_F(DramCtrlTest, PartiallyCoveredReadGoesToDram)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.writeLowThreshold = 0.5;
    build(cfg);
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0), 32);
    auto rd = req->inject(fromNs(50), MemCmd::ReadReq, addrOf(0, 0), 64);
    sim->run(fromUs(1));
    EXPECT_EQ(ctrl->ctrlStats().servicedByWrQ.value(), 0.0);
    // Served from the DRAM: latency includes the bank access.
    EXPECT_GE(req->responseTick(rd),
              fromNs(50) + fromNs(13.75 + 13.75 + 6));
}

TEST_F(DramCtrlTest, WritesParkBelowLowWatermark)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.writeBufferSize = 16;
    cfg.writeLowThreshold = 0.5; // 8 entries
    cfg.writeHighThreshold = 0.75;
    build(cfg);
    for (unsigned i = 0; i < 4; ++i)
        req->inject(0, MemCmd::WriteReq, addrOf(0, i));
    sim->run(fromUs(5));
    // Below the low watermark with no reads: kept on chip.
    EXPECT_EQ(ctrl->writeQueueSize(), 4u);
    EXPECT_EQ(ctrl->ctrlStats().bytesWritten.value(), 0.0);
}

TEST_F(DramCtrlTest, LowWatermarkTriggersIdleDrain)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.writeBufferSize = 16;
    cfg.writeLowThreshold = 0.25; // 4 entries
    cfg.minWritesPerSwitch = 2;
    build(cfg);
    for (unsigned i = 0; i < 4; ++i)
        req->inject(0, MemCmd::WriteReq, addrOf(0, i));
    sim->run(fromUs(5));
    // At the watermark with no reads pending: fully drained.
    EXPECT_EQ(ctrl->writeQueueSize(), 0u);
    EXPECT_EQ(ctrl->ctrlStats().bytesWritten.value(), 4 * 64.0);
}

TEST_F(DramCtrlTest, HighWatermarkForcesSwitchDespiteReads)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.writeBufferSize = 8;
    cfg.writeLowThreshold = 0.25;
    cfg.writeHighThreshold = 0.75; // 6 entries
    cfg.minWritesPerSwitch = 2;
    build(cfg);
    // A steady stream of reads, then a burst of writes over the
    // high watermark.
    for (unsigned i = 0; i < 16; ++i)
        req->inject(i * fromNs(6), MemCmd::ReadReq, addrOf(0, 0, i % 16));
    for (unsigned i = 0; i < 7; ++i)
        req->inject(fromNs(12), MemCmd::WriteReq, addrOf(1, i));
    sim->run(fromUs(50));
    EXPECT_TRUE(req->allResponded());
    // Writes were drained even though reads kept arriving; a residue
    // below the low watermark may stay parked on chip by design.
    EXPECT_GE(ctrl->ctrlStats().bytesWritten.value(), 6 * 64.0);
    EXPECT_LE(ctrl->writeQueueSize(), 1u);
    // The drain episode drained at least minWritesPerSwitch writes.
    EXPECT_GE(ctrl->ctrlStats().wrPerTurnAround.value(), 2.0);
}

TEST_F(DramCtrlTest, FrFcfsPrefersRowHitOverOlderConflict)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.schedPolicy = SchedPolicy::FrFcfs;
    build(cfg);
    // Open row 0 in bank 0, then queue a conflict (row 1) ahead of a
    // row hit (row 0).
    auto warm = req->inject(0, MemCmd::ReadReq, addrOf(0, 0, 0));
    // Both arrive at the same tick, the conflict first in queue order.
    auto conflict = req->inject(fromNs(40), MemCmd::ReadReq,
                                addrOf(0, 1));
    auto hit = req->inject(fromNs(40), MemCmd::ReadReq,
                           addrOf(0, 0, 1));
    sim->run(fromUs(10));
    (void)warm;
    // The younger row hit is serviced before the older conflict.
    EXPECT_LT(req->responseTick(hit), req->responseTick(conflict));
}

TEST_F(DramCtrlTest, FcfsServicesInArrivalOrder)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.schedPolicy = SchedPolicy::Fcfs;
    build(cfg);
    auto warm = req->inject(0, MemCmd::ReadReq, addrOf(0, 0, 0));
    auto conflict = req->inject(fromNs(40), MemCmd::ReadReq,
                                addrOf(0, 1));
    auto hit = req->inject(fromNs(40), MemCmd::ReadReq,
                           addrOf(0, 0, 1));
    sim->run(fromUs(10));
    (void)warm;
    // Strict order: the conflict goes first.
    EXPECT_GT(req->responseTick(hit), req->responseTick(conflict));
}

TEST_F(DramCtrlTest, FrFcfsRowHitStarvationCap)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.schedPolicy = SchedPolicy::FrFcfs;
    cfg.maxAccessesPerRow = 4;
    build(cfg);
    // A long run of row hits plus one conflict; the cap bounds how
    // long the conflict waits.
    auto conflict = req->inject(1, MemCmd::ReadReq, addrOf(0, 1));
    for (unsigned i = 0; i < 12; ++i)
        req->inject(0, MemCmd::ReadReq, addrOf(0, 0, i % 16));
    sim->run(fromUs(50));
    ASSERT_TRUE(req->allResponded());
    // The conflict must have been serviced before all 12 hits
    // completed (it would be last without the cap).
    unsigned after_conflict = 0;
    Tick conflict_tick = req->responseTick(conflict);
    for (const auto &r : req->responses()) {
        if (r.tick > conflict_tick)
            ++after_conflict;
    }
    EXPECT_GE(after_conflict, 1u);
}

/** Addresses of @p req's responses, in the order they arrived. */
std::vector<Addr>
responseOrder(const TestRequestor &req)
{
    std::vector<Addr> order;
    for (const auto &r : req.responses())
        order.push_back(r.addr);
    return order;
}

TEST_F(DramCtrlTest, FrFcfsCappedBankYieldsToUsableHitElsewhere)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.schedPolicy = SchedPolicy::FrFcfs;
    cfg.pagePolicy = PagePolicy::Open;
    cfg.maxAccessesPerRow = 2;
    build(cfg);
    // Warm-up: two accesses put bank 0's row 0 at the cap, one opens
    // row 0 in bank 1 (one access, under the cap).
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0, 0));
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0, 1));
    req->inject(0, MemCmd::ReadReq, addrOf(1, 0, 0));
    sim->run(fromUs(1));
    ASSERT_TRUE(req->allResponded());
    // Two hits on the capped bank, then a younger hit on bank 1, all
    // queued before one decision: the usable bank-1 hit goes first,
    // then the capped bank's hits, oldest first.
    const Tick at = fromUs(1);
    req->inject(at, MemCmd::ReadReq, addrOf(0, 0, 2));
    req->inject(at, MemCmd::ReadReq, addrOf(0, 0, 3));
    req->inject(at, MemCmd::ReadReq, addrOf(1, 0, 1));
    sim->run(fromUs(2));
    ASSERT_TRUE(req->allResponded());
    std::vector<Addr> order = responseOrder(*req);
    ASSERT_EQ(order.size(), 6u);
    order.erase(order.begin(), order.begin() + 3);
    EXPECT_EQ(order, (std::vector<Addr>{addrOf(1, 0, 1), addrOf(0, 0, 2),
                                        addrOf(0, 0, 3)}));
}

TEST_F(DramCtrlTest, FrFcfsCappedHitsCompeteByReadyTick)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.schedPolicy = SchedPolicy::FrFcfs;
    cfg.pagePolicy = PagePolicy::Open;
    cfg.maxAccessesPerRow = 2;
    build(cfg);
    // Warm-up: bank 0's row 0 reaches the cap; banks 1 and 2 open
    // row 0 with one access each.
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0, 0));
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0, 1));
    req->inject(0, MemCmd::ReadReq, addrOf(1, 0, 0));
    req->inject(0, MemCmd::ReadReq, addrOf(2, 0, 0));
    sim->run(fromUs(1));
    ASSERT_TRUE(req->allResponded());
    // Only a capped hit and conflicts are queued. The idle capped
    // bank's column path is ready now, the conflicts only after a
    // precharge and an activate, so the younger capped hit goes
    // first. The two conflicts then tie on idle banks, and the older
    // one (bank 2, queued first) wins the tie.
    const Tick at = fromUs(1);
    req->inject(at, MemCmd::ReadReq, addrOf(2, 1, 0));
    req->inject(at, MemCmd::ReadReq, addrOf(0, 0, 2));
    req->inject(at, MemCmd::ReadReq, addrOf(1, 1, 0));
    sim->run(fromUs(2));
    ASSERT_TRUE(req->allResponded());
    std::vector<Addr> order = responseOrder(*req);
    ASSERT_EQ(order.size(), 7u);
    order.erase(order.begin(), order.begin() + 4);
    EXPECT_EQ(order, (std::vector<Addr>{addrOf(0, 0, 2), addrOf(2, 1, 0),
                                        addrOf(1, 1, 0)}));
}

TEST_F(DramCtrlTest, ClosedAdaptiveKeepsRowForQueuedWriteHit)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.pagePolicy = PagePolicy::ClosedAdaptive;
    cfg.writeLowThreshold = 0.5; // keep the write parked
    build(cfg);
    // A write to row 0 of bank 0 parks below the low watermark; a read
    // then opens that row. The only queued hit on the row is the
    // write, and it alone keeps the page open.
    req->inject(0, MemCmd::WriteReq, addrOf(0, 0, 1));
    auto rd = req->inject(fromNs(10), MemCmd::ReadReq, addrOf(0, 0, 0));
    sim->run(fromUs(1));
    EXPECT_EQ(req->responseTick(rd), fromNs(10 + 13.75 + 13.75 + 6));
    EXPECT_EQ(ctrl->writeQueueSize(), 1u);
    EXPECT_EQ(ctrl->ctrlStats().numActs.value(), 1.0);
    EXPECT_EQ(ctrl->ctrlStats().numPrecharges.value(), 0.0);
}

TEST_F(DramCtrlTest, OpenAdaptiveClosesForQueuedWriteConflict)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.pagePolicy = PagePolicy::OpenAdaptive;
    cfg.writeLowThreshold = 0.5; // keep the write parked
    build(cfg);
    // A write to row 1 of bank 0 parks below the low watermark; a read
    // then opens row 0. The only burst waiting for the bank is the
    // conflicting write, so the page closes right after the read.
    req->inject(0, MemCmd::WriteReq, addrOf(0, 1));
    auto rd = req->inject(fromNs(10), MemCmd::ReadReq, addrOf(0, 0));
    sim->run(fromUs(1));
    EXPECT_EQ(req->responseTick(rd), fromNs(10 + 13.75 + 13.75 + 6));
    EXPECT_EQ(ctrl->writeQueueSize(), 1u);
    EXPECT_EQ(ctrl->ctrlStats().numActs.value(), 1.0);
    EXPECT_EQ(ctrl->ctrlStats().numPrecharges.value(), 1.0);
}

TEST_F(DramCtrlTest, OpenAdaptiveClosesForQueuedReadConflict)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.pagePolicy = PagePolicy::OpenAdaptive;
    build(cfg);
    CmdLogger logger;
    ctrl->setCmdLogger(&logger);
    // A read opens row 0 of bank 0; a read to row 1 of the same bank
    // waits behind twelve row hits on bank 1. The only burst waiting
    // for bank 0 is that conflicting read, so the page closes as soon
    // as tRAS allows, not when the read is finally picked.
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0));
    for (unsigned col = 0; col < 12; ++col)
        req->inject(0, MemCmd::ReadReq, addrOf(1, 0, col));
    req->inject(0, MemCmd::ReadReq, addrOf(0, 1));
    sim->run(fromUs(1));
    ASSERT_TRUE(req->allResponded());
    std::vector<Tick> bank0_pre;
    for (const CmdRecord &rec : logger.log()) {
        if (rec.cmd == DRAMCmd::Pre && rec.bank == 0)
            bank0_pre.push_back(rec.tick);
    }
    EXPECT_EQ(bank0_pre, std::vector<Tick>{fromNs(35)});
    EXPECT_EQ(ctrl->ctrlStats().numActs.value(), 3.0);
}

TEST_F(DramCtrlTest, NarrowInterfaceChopsCacheLines)
{
    // LPDDR3: 32-byte bursts; a 64-byte line is two bursts
    // (Section II-A sub-cache-line handling).
    DRAMCtrlConfig cfg = presets::lpddr3_1600();
    cfg.timing.tREFI = 0;
    cfg.frontendLatency = 0;
    cfg.backendLatency = 0;
    build(cfg);
    ASSERT_EQ(cfg.org.burstSize(), 32u);
    auto id = req->inject(0, MemCmd::ReadReq, 0, 64);
    sim->run(fromUs(10));
    EXPECT_EQ(ctrl->ctrlStats().readBursts.value(), 2.0);
    // Sequential sub-accesses: second burst is a row hit.
    EXPECT_EQ(ctrl->ctrlStats().readRowHits.value(), 1.0);
    EXPECT_EQ(req->responseTick(id),
              fromNs(15 + 15 + 2 * 5)); // tRCD + tCL + 2 tBURST
}

TEST_F(DramCtrlTest, UnalignedRequestSpanningBursts)
{
    build(testutil::bareTimingConfig());
    // 64 bytes starting 32 bytes into a burst: touches two windows.
    auto id = req->inject(0, MemCmd::ReadReq, addrOf(0, 0) + 32, 64);
    sim->run(fromUs(10));
    EXPECT_TRUE(req->allResponded());
    (void)id;
    EXPECT_EQ(ctrl->ctrlStats().readBursts.value(), 2.0);
}

TEST_F(DramCtrlTest, PacketConservationUnderRandomLoad)
{
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    cfg.readBufferSize = 8;
    cfg.writeBufferSize = 8;
    cfg.minWritesPerSwitch = 4;
    build(cfg);

    Random rng(42);
    unsigned injected = 0;
    for (Tick t = 0; t < fromUs(3); t += rng.uniform(2000, 12000)) {
        bool is_read = rng.chance(0.6);
        Addr addr = rng.uniform(0, 1023) * 64;
        req->inject(t, is_read ? MemCmd::ReadReq : MemCmd::WriteReq,
                    addr);
        ++injected;
    }
    sim->run(fromUs(200));
    EXPECT_TRUE(req->allResponded());
    EXPECT_EQ(req->responses().size(), injected);
    EXPECT_TRUE(ctrl->idle() || ctrl->writeQueueSize() > 0);
}

TEST_F(DramCtrlTest, ReadResponsesArriveInIssueOrderPerBank)
{
    build(testutil::bareTimingConfig());
    std::vector<std::uint64_t> ids;
    for (unsigned i = 0; i < 6; ++i)
        ids.push_back(
            req->inject(0, MemCmd::ReadReq, addrOf(0, 0, i)));
    sim->run(fromUs(10));
    for (unsigned i = 1; i < ids.size(); ++i)
        EXPECT_GT(req->responseTick(ids[i]),
                  req->responseTick(ids[i - 1]));
}

TEST_F(DramCtrlTest, MisroutedPacketPanics)
{
    setThrowOnError(true);
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    sim = std::make_unique<Simulator>();
    // Controller only owns the second half of a window.
    ctrl = std::make_unique<DRAMCtrl>(
        *sim, "ctrl", cfg,
        AddrRange(cfg.org.channelCapacity, cfg.org.channelCapacity));
    req = std::make_unique<TestRequestor>(*sim, "req");
    req->port().bind(ctrl->port());
    // The panic comes before the controller takes the packet, so the
    // test still owns it.
    auto pkt = std::make_unique<Packet>(MemCmd::ReadReq, 0, 64, 0);
    EXPECT_THROW(req->port().sendTimingReq(pkt.get()),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST_F(DramCtrlTest, MismatchedRangeIsFatal)
{
    setThrowOnError(true);
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    sim = std::make_unique<Simulator>();
    EXPECT_THROW(DRAMCtrl(*sim, "ctrl", cfg, AddrRange(0, 4096)),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST_F(DramCtrlTest, ConfigValidationCatchesBadThresholds)
{
    setThrowOnError(true);
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    cfg.writeLowThreshold = 0.9;
    cfg.writeHighThreshold = 0.5;
    EXPECT_THROW(cfg.check(), std::runtime_error);

    cfg = testutil::bareTimingConfig();
    cfg.minWritesPerSwitch = 0;
    EXPECT_THROW(cfg.check(), std::runtime_error);

    cfg = testutil::bareTimingConfig();
    cfg.timing.activationLimit = 1;
    EXPECT_THROW(cfg.check(), std::runtime_error);
    setThrowOnError(false);
}

TEST_F(DramCtrlTest, StatsResetStartsFreshWindow)
{
    build(testutil::bareTimingConfig());
    req->inject(0, MemCmd::ReadReq, addrOf(0, 0));
    sim->run(fromUs(1));
    EXPECT_GT(ctrl->ctrlStats().readBursts.value(), 0.0);
    sim->resetStats();
    EXPECT_EQ(ctrl->ctrlStats().readBursts.value(), 0.0);
    EXPECT_EQ(ctrl->statsWindowStart(), sim->curTick());
    // Utilisation over the new (empty) window.
    req->inject(sim->curTick() + 1, MemCmd::ReadReq, addrOf(1, 0));
    sim->run(sim->curTick() + fromUs(1));
    EXPECT_GT(ctrl->busUtilisation(), 0.0);
    EXPECT_LE(ctrl->busUtilisation(), 1.0);
}

TEST_F(DramCtrlTest, PerBankCountersMatchTraffic)
{
    build(testutil::bareTimingConfig());
    req->inject(0, MemCmd::ReadReq, addrOf(2, 0));
    req->inject(0, MemCmd::ReadReq, addrOf(2, 0, 1));
    req->inject(0, MemCmd::ReadReq, addrOf(5, 0));
    sim->run(fromUs(10));
    const auto &s = ctrl->ctrlStats();
    EXPECT_EQ(s.perBankRdBursts[2], 2.0);
    EXPECT_EQ(s.perBankRdBursts[5], 1.0);
    EXPECT_EQ(s.perBankRdBursts.total(), 3.0);
}

} // namespace
} // namespace dramctrl
