/**
 * @file
 * Tests for the power tally (mem/power_tally.hh): the online
 * prechargeAllTime of both models against an offline replay of the
 * same run's command log under the tally's rule, and the refresh
 * charge of per-rank and per-bank refresh.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "harness/testbench.hh"
#include "power/dram_power.hh"
#include "power/micron_power.hh"
#include "trafficgen/random_gen.hh"

namespace dramctrl {
namespace {

using harness::CtrlModel;
using harness::SingleChannelSystem;

/**
 * The time in [@p from, @p to) during which no bank of @p ctrl's
 * channel was active and no refresh ran, replayed from the sorted
 * command log: a bank is active from its ACT until its PRE + tRP (or
 * @p to, if still open), a REF keeps its rank busy for tRFC, a REFpb
 * and a REFm their bank for tRFCpb and tRFM.
 */
Tick
replayPrechargeAll(std::vector<CmdRecord> log, const MemCtrlBase &ctrl,
                   Tick from, Tick to)
{
    const DRAMCtrlConfig &cfg = ctrl.config();
    const plugin::PluginChain &chain = ctrl.pluginChain();
    std::stable_sort(log.begin(), log.end(),
                     [](const CmdRecord &a, const CmdRecord &b) {
                         return a.tick < b.tick;
                     });
    std::vector<std::pair<Tick, Tick>> spans;
    std::vector<Tick> act_at(cfg.org.totalBanks(), kMaxTick);
    for (const CmdRecord &rec : log) {
        const unsigned flat = rec.rank * cfg.org.banksPerRank + rec.bank;
        switch (rec.cmd) {
          case DRAMCmd::Act:
            act_at[flat] = rec.tick;
            break;
          case DRAMCmd::Pre:
            spans.emplace_back(act_at[flat], rec.tick + cfg.timing.tRP);
            act_at[flat] = kMaxTick;
            break;
          case DRAMCmd::Ref:
            spans.emplace_back(rec.tick, rec.tick + cfg.timing.tRFC);
            break;
          case DRAMCmd::RefPb:
            spans.emplace_back(rec.tick, rec.tick +
                                             chain.refreshManager()->tRFCpb());
            break;
          case DRAMCmd::RefM:
            spans.emplace_back(rec.tick, rec.tick + chain.prac()->tRFM());
            break;
          case DRAMCmd::Rd:
          case DRAMCmd::Wr:
            break;
        }
    }
    for (Tick t : act_at) {
        if (t != kMaxTick)
            spans.emplace_back(t, to);
    }
    std::sort(spans.begin(), spans.end());
    Tick idle = 0;
    Tick at = from;
    for (const auto &[start, end] : spans) {
        if (start >= to)
            break;
        if (start > at)
            idle += start - at;
        at = std::max(at, std::min(end, to));
    }
    return idle + (to > at ? to - at : 0);
}

struct ReplayCase
{
    const char *name;
    CtrlModel model;
    PagePolicy page;
    unsigned ranks;
    bool powerDown;
    /** Reset the statistics at this tick (0: never). */
    Tick resetAt;
    const char *plugins;
    bool perRankRefresh = false;
};

std::ostream &
operator<<(std::ostream &os, const ReplayCase &c)
{
    return os << c.name;
}

class TallyReplay : public ::testing::TestWithParam<ReplayCase>
{
};

TEST_P(TallyReplay, PrechargeAllTimeMatchesCommandLog)
{
    const ReplayCase &c = GetParam();
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.pagePolicy = c.page;
    cfg.org.ranksPerChannel = c.ranks;
    cfg.perRankRefresh = c.perRankRefresh;
    if (c.powerDown) {
        cfg.enablePowerDown = true;
        cfg.powerDownDelay = fromNs(100);
    }
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList(c.plugins, cfg, err)) << err;
    for (PluginSpec &spec : cfg.plugins)
        spec.pracThreshold = 2;

    SingleChannelSystem tb(cfg, c.model);
    std::vector<CmdLogger> &logs = tb.attachCmdLoggers();
    GenConfig gc;
    // A PRAC case plays in few rows, so their counts reach the alert.
    gc.windowSize = cfg.plugins.empty() ? cfg.org.channelCapacity
                                        : 256 * 1024;
    gc.readPct = 70;
    gc.numRequests = 2000;
    // Power-down needs idle gaps longer than its entry delay.
    gc.minITT = fromNs(c.powerDown ? 20 : 50);
    gc.maxITT = fromNs(c.powerDown ? 600 : 50);
    auto &gen = tb.addGen<RandomGen>(gc);
    if (c.resetAt != 0) {
        tb.sim().run(c.resetAt);
        tb.sim().rootStats().resetAll();
    }
    tb.runToCompletion([&] { return gen.done(); });

    const MemCtrlBase &ctrl = tb.ctrl();
    PowerInputs in = ctrl.powerInputs();
    EXPECT_GT(in.numActs, 0.0);
    EXPECT_EQ(in.prechargeAllTime,
              replayPrechargeAll(logs[0].log(), ctrl,
                                 ctrl.statsWindowStart(),
                                 tb.sim().curTick()));
    EXPECT_LE(in.prechargeAllTime, in.window);
    if (c.powerDown) {
        EXPECT_GT(in.powerDownTime, 0u);
    }
    const DRAMCmd kind = std::string(c.plugins) == "prac"
                             ? DRAMCmd::RefM
                             : c.plugins[0] ? DRAMCmd::RefPb : DRAMCmd::Ref;
    EXPECT_TRUE(std::any_of(logs[0].log().begin(), logs[0].log().end(),
                            [&](const CmdRecord &r) { return r.cmd == kind; }))
        << toString(kind);
}

INSTANTIATE_TEST_SUITE_P(
    Models, TallyReplay,
    ::testing::Values(
        ReplayCase{"event_open_1rank", CtrlModel::Event, PagePolicy::Open,
                   1, false, 0, ""},
        ReplayCase{"event_closed_1rank", CtrlModel::Event,
                   PagePolicy::Closed, 1, false, 0, ""},
        ReplayCase{"event_open_2rank", CtrlModel::Event, PagePolicy::Open,
                   2, false, 0, ""},
        ReplayCase{"event_closed_2rank", CtrlModel::Event,
                   PagePolicy::Closed, 2, false, 0, ""},
        ReplayCase{"cycle_open_1rank", CtrlModel::Cycle, PagePolicy::Open,
                   1, false, 0, ""},
        ReplayCase{"cycle_closed_1rank", CtrlModel::Cycle,
                   PagePolicy::Closed, 1, false, 0, ""},
        ReplayCase{"cycle_open_2rank", CtrlModel::Cycle, PagePolicy::Open,
                   2, false, 0, ""},
        ReplayCase{"cycle_closed_2rank", CtrlModel::Cycle,
                   PagePolicy::Closed, 2, false, 0, ""},
        ReplayCase{"event_open_powerdown", CtrlModel::Event,
                   PagePolicy::Open, 1, true, 0, ""},
        ReplayCase{"event_closed_2rank_powerdown", CtrlModel::Event,
                   PagePolicy::Closed, 2, true, 0, ""},
        ReplayCase{"event_closed_2rank_per_rank_refresh", CtrlModel::Event,
                   PagePolicy::Closed, 2, false, 0, "", true},
        ReplayCase{"event_open_2rank_per_rank_refresh", CtrlModel::Event,
                   PagePolicy::Open, 2, false, 0, "", true},
        // A reset inside a power-down episode, whose lazy precharges
        // are logged only at its exit.
        ReplayCase{"event_open_powerdown_reset_in_episode",
                   CtrlModel::Event, PagePolicy::Open, 1, true, fromUs(5),
                   ""},
        // A reset between an ACT's logging and its launch.
        ReplayCase{"event_open_powerdown_reset_before_act",
                   CtrlModel::Event, PagePolicy::Open, 1, true,
                   fromUs(11.66), ""},
        ReplayCase{"event_open_reset", CtrlModel::Event, PagePolicy::Open,
                   1, false, fromUs(20.0005), ""},
        ReplayCase{"cycle_open_reset", CtrlModel::Cycle, PagePolicy::Open,
                   1, false, fromUs(20.0005), ""},
        ReplayCase{"event_refmgr_pb", CtrlModel::Event, PagePolicy::Open,
                   2, false, 0, "refmgr-pb"},
        ReplayCase{"event_prac", CtrlModel::Event, PagePolicy::Closed, 1,
                   false, 0, "prac"},
        ReplayCase{"cycle_prac", CtrlModel::Cycle, PagePolicy::Closed, 1,
                   false, 0, "prac"}),
    [](const ::testing::TestParamInfo<ReplayCase> &info) {
        return std::string(info.param.name);
    });

/** Refresh-term inputs and power of a random run on @p cfg. */
struct RefreshRun
{
    PowerInputs in;
    double micronW;
    double commandW;
};

RefreshRun
runRefresh(const DRAMCtrlConfig &cfg, const std::string &preset)
{
    SingleChannelSystem tb(cfg, CtrlModel::Event);
    GenConfig gc;
    gc.windowSize = cfg.org.channelCapacity;
    gc.numRequests = 20000;
    gc.minITT = gc.maxITT = fromNs(50);
    auto &gen = tb.addGen<RandomGen>(gc);
    tb.runToCompletion([&] { return gen.done(); });
    RefreshRun r;
    r.in = tb.ctrl().powerInputs();
    r.micronW =
        power::computePower(r.in, cfg, power::paramsFor(preset)).refresh;
    r.commandW = power::computeCommandEnergy(
                     r.in, cfg, power::commandEnergyFor(preset))
                     .refresh;
    return r;
}

/**
 * One all-rank refresh event refreshes every rank, as the per-rank
 * schedule does rank by rank: on a two-rank channel both charge the
 * same refresh energy, within one REF.
 */
TEST(TallyRefresh, PerRankAndAllRankRefreshChargeAlike)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.org.ranksPerChannel = 2;
    RefreshRun all = runRefresh(cfg, "ddr3_1333");
    cfg.perRankRefresh = true;
    RefreshRun per = runRefresh(cfg, "ddr3_1333");

    ASSERT_GT(all.in.numRefreshes, 10.0);
    EXPECT_NEAR(per.in.numRefreshes, all.in.numRefreshes, 1.0);
    auto energy = [](double watts, const PowerInputs &in) {
        return watts * toSeconds(in.window);
    };
    const double one_ref_micron =
        energy(all.micronW, all.in) / all.in.numRefreshes;
    EXPECT_NEAR(energy(per.micronW, per.in), energy(all.micronW, all.in),
                one_ref_micron);
    const double one_ref_command =
        energy(all.commandW, all.in) / all.in.numRefreshes;
    EXPECT_NEAR(energy(per.commandW, per.in),
                energy(all.commandW, all.in), one_ref_command);
}

/**
 * A REFpb refreshes one bank of a rank, so refmgr-pb's rotation
 * through the banks charges what all-bank refresh charges per tREFI.
 */
TEST(TallyRefresh, PerBankRefreshChargesOneRankRefreshPerRotation)
{
    DRAMCtrlConfig cfg = presets::ddr4_2400();
    RefreshRun all = runRefresh(cfg, "ddr4_2400");
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("refmgr-pb", cfg, err)) << err;
    RefreshRun pb = runRefresh(cfg, "ddr4_2400");

    ASSERT_GT(all.in.numRefreshes, 50.0);
    // Refresh power is refresh energy per tREFI over tREFI.
    EXPECT_NEAR(pb.micronW / all.micronW, 1.0, 0.02);
    EXPECT_NEAR(pb.commandW / all.commandW, 1.0, 0.02);
}

} // namespace
} // namespace dramctrl
