/**
 * @file
 * Cross-module integration tests: the two controller models fed the
 * same deterministic traffic must correlate (the essence of the
 * paper's Section III validation), multi-channel systems must conserve
 * traffic, and the event model must do far less work than the cycle
 * model for the same simulated interval (Section II-D / III-D).
 */

#include <gtest/gtest.h>

#include "cyclesim/cycle_ctrl.hh"
#include "dram/dram_ctrl.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "trafficgen/dram_gen.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using harness::CtrlModel;
using harness::SingleChannelSystem;

struct RunResult
{
    double busUtil;
    double bandwidthGBs;
    double avgReadLatencyNs;
    double rowHitRate;
    /** Total kernel events serviced over the whole run. */
    std::uint64_t totalEvents;
};

/** Run one model against the DRAM-aware generator, saturating. */
RunResult
runModel(CtrlModel model, std::uint64_t stride, unsigned banks,
         unsigned read_pct, PagePolicy page)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.pagePolicy = page;
    cfg.addrMapping = page == PagePolicy::Open
                          ? AddrMapping::RoRaBaCoCh
                          : AddrMapping::RoCoRaBaCh;
    cfg.writeLowThreshold = 0.0;
    SingleChannelSystem tb(cfg, model);

    DramGenConfig gc;
    gc.org = cfg.org;
    gc.mapping = cfg.addrMapping;
    gc.strideBytes = stride;
    gc.numBanksTarget = banks;
    gc.readPct = read_pct;
    gc.minITT = gc.maxITT = fromNs(3); // oversubscribe
    gc.numRequests = 4000;
    gc.seed = 11;
    auto &gen = tb.addGen<DramGen>(gc);

    // Warm up, then measure a window.
    tb.sim().run(fromUs(5));
    tb.sim().resetStats();
    tb.runToCompletion([&] { return gen.done(); }, fromUs(2000));

    RunResult r;
    r.busUtil = tb.ctrl().busUtilisation();
    r.bandwidthGBs = tb.ctrl().achievedBandwidthGBs();
    r.avgReadLatencyNs = gen.avgReadLatencyNs();
    r.totalEvents = tb.sim().eventq().numEventsServiced();
    if (model == CtrlModel::Event) {
        r.rowHitRate = tb.eventCtrl().ctrlStats().rowHitRate.value();
    } else {
        auto &cc = dynamic_cast<cyclesim::CycleDRAMCtrl &>(tb.ctrl());
        r.rowHitRate = cc.ctrlStats().rowHitRate.value();
    }
    return r;
}

TEST(ModelCorrelationTest, OpenPageReadBandwidthMatches)
{
    // Fig. 3-style point: large stride, many banks, reads only.
    RunResult ev = runModel(CtrlModel::Event, 1024, 8, 100,
                            PagePolicy::Open);
    RunResult cy = runModel(CtrlModel::Cycle, 1024, 8, 100,
                            PagePolicy::Open);
    // Both near peak and within 10% of each other.
    EXPECT_GT(ev.busUtil, 0.8);
    EXPECT_GT(cy.busUtil, 0.7);
    EXPECT_NEAR(ev.busUtil, cy.busUtil, 0.1);
}

TEST(ModelCorrelationTest, LowHitRatePointAlsoMatches)
{
    RunResult ev = runModel(CtrlModel::Event, 64, 4, 100,
                            PagePolicy::Open);
    RunResult cy = runModel(CtrlModel::Cycle, 64, 4, 100,
                            PagePolicy::Open);
    EXPECT_NEAR(ev.busUtil, cy.busUtil, 0.12);
}

TEST(ModelCorrelationTest, EventModelWinsOnClosedPageWrites)
{
    // Fig. 5: the write-drain window lets the event model reschedule
    // writes; the cycle model trails at high bank counts.
    RunResult ev = runModel(CtrlModel::Event, 256, 4, 0,
                            PagePolicy::Closed);
    RunResult cy = runModel(CtrlModel::Cycle, 256, 4, 0,
                            PagePolicy::Closed);
    EXPECT_GE(ev.busUtil, cy.busUtil - 0.02);
}

TEST(ModelCorrelationTest, EventModelDoesFarLessWork)
{
    // Section II-D: for the same simulated traffic the cycle model
    // must service far more kernel events (one per DRAM clock while
    // busy) than the event model, which only wakes on state changes.
    RunResult ev = runModel(CtrlModel::Event, 512, 8, 100,
                            PagePolicy::Open);
    RunResult cy = runModel(CtrlModel::Cycle, 512, 8, 100,
                            PagePolicy::Open);
    EXPECT_LT(static_cast<double>(ev.totalEvents),
              0.6 * static_cast<double>(cy.totalEvents));
}

TEST(MultiChannelTest, FourChannelSystemConservesTraffic)
{
    std::uint64_t live_before = Packet::liveCount();
    {
        Simulator sim;
        DRAMCtrlConfig cfg = testutil::noRefreshConfig();
        Crossbar xbar(sim, "xbar", XBarConfig{});
        auto ranges = interleavedRanges(
            0, 4 * cfg.org.channelCapacity, 64, 4);
        std::vector<std::unique_ptr<DRAMCtrl>> ctrls;
        for (unsigned ch = 0; ch < 4; ++ch) {
            ctrls.push_back(std::make_unique<DRAMCtrl>(
                sim, "ctrl" + std::to_string(ch), cfg, ranges[ch]));
            xbar.addChannel(ctrls.back()->port(), ranges[ch]);
        }

        GenConfig gc;
        gc.windowSize = 1 << 24;
        gc.readPct = 60;
        gc.minITT = gc.maxITT = fromNs(2);
        gc.numRequests = 2000;
        gc.seed = 31;
        RandomGen gen(sim, "gen", gc, 0);
        gen.port().bind(xbar.addFrontPort({0}));

        harness::runUntil(sim, [&] { return gen.done(); });
        ASSERT_TRUE(gen.done());
        EXPECT_EQ(gen.genStats().recvResponses.value(), 2000.0);

        // The interleaving spread requests over all four channels.
        double total_reqs = 0;
        for (const auto &c : ctrls) {
            double reqs = c->ctrlStats().readReqs.value() +
                          c->ctrlStats().writeReqs.value();
            EXPECT_GT(reqs, 0.0);
            total_reqs += reqs;
        }
        EXPECT_EQ(total_reqs, 2000.0);
    }
    EXPECT_EQ(Packet::liveCount(), live_before);
}

TEST(MultiChannelTest, SixteenChannelHmcStyleSystemWorks)
{
    // Section II-F: an HMC model is "only a matter of combining the
    // crossbar model with 16 instances of our controller model".
    Simulator sim;
    DRAMCtrlConfig cfg = presets::hmcVault();
    cfg.timing.tREFI = 0;
    Crossbar xbar(sim, "xbar", XBarConfig{});
    auto ranges =
        interleavedRanges(0, 16 * cfg.org.channelCapacity, 256, 16);
    std::vector<std::unique_ptr<DRAMCtrl>> vaults;
    for (unsigned ch = 0; ch < 16; ++ch) {
        vaults.push_back(std::make_unique<DRAMCtrl>(
            sim, "vault" + std::to_string(ch), cfg, ranges[ch]));
        xbar.addChannel(vaults.back()->port(), ranges[ch]);
    }

    GenConfig gc;
    gc.windowSize = 1 << 26;
    gc.readPct = 70;
    gc.blockSize = 32;
    gc.minITT = gc.maxITT = fromNs(1);
    gc.numRequests = 4000;
    gc.seed = 41;
    RandomGen gen(sim, "gen", gc, 0);
    gen.port().bind(xbar.addFrontPort({0}));

    harness::runUntil(sim, [&] { return gen.done(); });
    ASSERT_TRUE(gen.done());

    unsigned active_vaults = 0;
    for (const auto &v : vaults) {
        if (v->ctrlStats().readReqs.value() > 0)
            ++active_vaults;
    }
    EXPECT_EQ(active_vaults, 16u);
}

TEST(LatencyShapeTest, WriteDrainMakesEventModelReadLatencyBimodal)
{
    // Fig. 7's mechanism: mixed linear traffic under a closed page.
    // The event model delays some reads behind write drains; the
    // cycle model services in order and stays unimodal.
    auto run = [](CtrlModel model) {
        DRAMCtrlConfig cfg = presets::ddr3_1333();
        cfg.pagePolicy = PagePolicy::Closed;
        cfg.addrMapping = AddrMapping::RoCoRaBaCh;
        SingleChannelSystem tb(cfg, model);
        GenConfig gc;
        gc.windowSize = 1 << 22;
        gc.readPct = 50;
        gc.minITT = gc.maxITT = fromNs(12);
        gc.numRequests = 4000;
        gc.seed = 57;
        auto &gen = tb.addGen<LinearGen>(gc);
        tb.runToCompletion([&] { return gen.done(); },
                           fromUs(5000));
        EXPECT_TRUE(gen.done());
        return gen.genStats().readLatencyHist.numModes(0.02);
    };

    EXPECT_GE(run(CtrlModel::Event), 2u);
    EXPECT_LE(run(CtrlModel::Cycle), 2u);
}

TEST(LatencyShapeTest, AverageLatenciesWithinBand)
{
    // Section III-C2: distributions differ in shape but averages stay
    // close. Allow a generous band (the models differ by design).
    auto avg = [](CtrlModel model) {
        DRAMCtrlConfig cfg = presets::ddr3_1333();
        SingleChannelSystem tb(cfg, model);
        GenConfig gc;
        gc.windowSize = 1 << 22;
        gc.readPct = 100;
        gc.minITT = gc.maxITT = fromNs(15);
        gc.numRequests = 3000;
        gc.seed = 61;
        auto &gen = tb.addGen<LinearGen>(gc);
        tb.runToCompletion([&] { return gen.done(); },
                           fromUs(5000));
        return gen.avgReadLatencyNs();
    };
    double ev = avg(CtrlModel::Event);
    double cy = avg(CtrlModel::Cycle);
    EXPECT_NEAR(ev, cy, 0.25 * std::max(ev, cy));
}

} // namespace
} // namespace dramctrl
