/**
 * @file
 * Latency attribution tests: the per-stage decomposition carried by
 * every response must sum *exactly* to the measured end-to-end
 * latency — in the event model, in the cycle model, through the
 * crossbar, and over a golden-corpus style randomised run (where the
 * generator-side DC_ASSERTs audit every single response).
 */

#include <gtest/gtest.h>

#include <memory>

#include "cyclesim/cycle_ctrl.hh"
#include "dram/dram_ctrl.hh"
#include "harness/testbench.hh"
#include "sim/simulator.hh"
#include "stats/latency_attr.hh"
#include "trafficgen/random_gen.hh"
#include "xbar/xbar.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using stats::LatStage;
using stats::LatencySpan;
using testutil::TestRequestor;

/** Sum the six stages by hand — the identity the spans must satisfy. */
Tick
stageSum(const LatencySpan &s)
{
    Tick sum = 0;
    for (unsigned i = 0; i < static_cast<unsigned>(LatStage::NumStages);
         ++i)
        sum += s.stage(static_cast<LatStage>(i));
    return sum;
}

void
checkResponses(const TestRequestor &req)
{
    ASSERT_FALSE(req.responses().empty());
    for (const TestRequestor::Response &r : req.responses()) {
        ASSERT_TRUE(r.span.valid)
            << "response without span at tick " << r.tick;
        EXPECT_TRUE(r.span.consistent());
        // The decomposition sums to the span total...
        EXPECT_EQ(stageSum(r.span), r.span.total());
        // ...and, with the requestor wired straight to the controller
        // (no interconnect, no retries), the span total IS the
        // measured end-to-end latency — exactly, for every request.
        EXPECT_EQ(r.span.total(), r.tick - r.injected)
            << "pkt " << r.pktId << " injected at " << r.injected;
    }
}

TEST(LatencyAttr, EventModelDecompositionIsExact)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    DRAMCtrl ctrl(sim, "mem_ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    TestRequestor req(sim, "req");
    req.port().bind(ctrl.port());

    // Same row (hits), different rows in one bank (conflicts) and
    // different banks — exercising queueing, bankTiming and bus
    // contention stages.
    for (unsigned i = 0; i < 4; ++i)
        req.inject(0, MemCmd::ReadReq, i * 64);
    req.inject(0, MemCmd::ReadReq, 1 << 16);
    req.inject(0, MemCmd::ReadReq, 1 << 20);
    sim.run(fromUs(2.0));

    ASSERT_TRUE(req.allResponded());
    checkResponses(req);

    // Every serviced read landed in the stage histograms.
    EXPECT_EQ(ctrl.ctrlStats().lat.totalHist().count(), 6u);
}

TEST(LatencyAttr, EventModelWritesAndForwardsAreImmediate)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    DRAMCtrl ctrl(sim, "mem_ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    TestRequestor req(sim, "req");
    req.port().bind(ctrl.port());

    req.inject(0, MemCmd::WriteReq, 0);
    // Read of the freshly written line: forwarded from the write
    // queue, never touching the DRAM.
    req.inject(fromNs(1.0), MemCmd::ReadReq, 0);
    sim.run(fromUs(2.0));

    ASSERT_TRUE(req.allResponded());
    for (const TestRequestor::Response &r : req.responses()) {
        ASSERT_TRUE(r.span.valid);
        EXPECT_TRUE(r.span.consistent());
        // Immediate spans: the only latency is the static pipeline.
        EXPECT_EQ(r.span.done, r.span.enqueue);
        EXPECT_EQ(r.span.total(), r.span.staticLat);
        EXPECT_EQ(r.span.total(), r.tick - r.injected);
    }
    // Neither request was serviced by the DRAM read path.
    EXPECT_EQ(ctrl.ctrlStats().lat.totalHist().count(), 0u);
}

TEST(LatencyAttr, CycleModelDecompositionIsExact)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    cyclesim::CycleDRAMCtrl ctrl(sim, "cycle_ctrl", cfg,
                                 AddrRange(0,
                                           cfg.org.channelCapacity));
    TestRequestor req(sim, "req");
    req.port().bind(ctrl.port());

    for (unsigned i = 0; i < 4; ++i)
        req.inject(0, MemCmd::ReadReq, i * 64);
    req.inject(0, MemCmd::ReadReq, 1 << 16);
    req.inject(0, MemCmd::ReadReq, 1 << 20);
    sim.run(fromUs(2.0));

    ASSERT_TRUE(req.allResponded());
    checkResponses(req);
    EXPECT_EQ(ctrl.ctrlStats().lat.totalHist().count(), 6u);

    // The cycle model has no separate scheduler-stall stage: the bank
    // becomes "ready" at issue (the wait shows up as bankTiming).
    for (const TestRequestor::Response &r : req.responses())
        EXPECT_EQ(r.span.stage(LatStage::SchedStall), 0u);
}

/**
 * Golden-corpus style randomised runs: the generator's
 * recvTimingResp DC_ASSERTs span consistency and inner-vs-measured
 * ordering for EVERY response, so simply completing the run audits
 * the full corpus. On top, the stage histograms must cover every
 * DRAM-serviced read and the requestor-side residual every valid
 * span.
 */
class LatencyAttrCorpus
    : public ::testing::TestWithParam<harness::CtrlModel>
{};

TEST_P(LatencyAttrCorpus, RandomisedRunAuditsEveryResponse)
{
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    harness::SingleChannelSystem sys(cfg, GetParam());

    GenConfig gcfg;
    gcfg.windowSize = 1 << 22;
    gcfg.readPct = 70;
    gcfg.numRequests = 2000;
    gcfg.minITT = fromNs(3.0);
    gcfg.maxITT = fromNs(12.0);
    gcfg.seed = 7;
    RandomGen &gen = sys.addGen<RandomGen>(gcfg);

    sys.runToCompletion([&gen] { return gen.done(); });

    const auto &gs = gen.genStats();
    EXPECT_EQ(static_cast<std::uint64_t>(gs.recvResponses.value()),
              gcfg.numRequests);
    // Every read response carried a valid span, so the residual
    // histogram sampled exactly the read count.
    EXPECT_EQ(gs.xbarLatencyHist.count(),
              static_cast<std::uint64_t>(gs.sentReads.value()));
}

INSTANTIATE_TEST_SUITE_P(Models, LatencyAttrCorpus,
                         ::testing::Values(harness::CtrlModel::Event,
                                           harness::CtrlModel::Cycle));

TEST(LatencyAttr, SpansSurviveTheCrossbar)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();

    Crossbar xbar(sim, "xbar", XBarConfig{});
    std::vector<AddrRange> ranges = interleavedRanges(
        0, cfg.org.channelCapacity * 2, 64, 2);
    std::vector<std::unique_ptr<DRAMCtrl>> ctrls;
    for (unsigned ch = 0; ch < 2; ++ch) {
        auto ctrl = std::make_unique<DRAMCtrl>(
            sim, "ctrl" + std::to_string(ch), cfg, ranges[ch]);
        xbar.addChannel(ctrl->port(), ranges[ch]);
        ctrls.push_back(std::move(ctrl));
    }

    GenConfig gcfg;
    gcfg.windowSize = 1 << 22;
    gcfg.readPct = 100;
    gcfg.numRequests = 500;
    gcfg.minITT = fromNs(3.0);
    gcfg.maxITT = fromNs(6.0);
    RandomGen gen(sim, "gen", gcfg, 0);
    gen.port().bind(xbar.addFrontPort({0}));

    harness::runUntil(sim, [&] { return gen.done(); });
    ASSERT_TRUE(gen.done());

    // Through the interconnect the measured latency strictly exceeds
    // the controller span: the residual histogram saw every read and
    // its minimum is at least the crossbar's two-way pipeline
    // latency.
    const auto &gs = gen.genStats();
    EXPECT_EQ(gs.xbarLatencyHist.count(), 500u);
    XBarConfig xcfg;
    EXPECT_GE(gs.xbarLatencyHist.minSample(),
              toNs(xcfg.frontendLatency + xcfg.responseLatency));
}

TEST(LatencyAttr, StageStatsRejectInconsistentSpans)
{
    setThrowOnError(true);
    Simulator sim;
    stats::StageLatencyStats lat(&sim.rootStats(), "lat", "test");
    LatencySpan bad;
    bad.valid = true;
    bad.enqueue = 100; // enqueue after pick: must trip the assert
    bad.pick = 50;
    bad.bankReady = bad.issue = bad.burstStart = bad.done = 200;
    EXPECT_THROW(lat.record(bad), std::runtime_error);
    setThrowOnError(false);
}

} // namespace
} // namespace dramctrl
