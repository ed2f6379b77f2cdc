/**
 * @file
 * Property-based sweeps (parameterised gtest) over the controller
 * configuration space: for every combination of model, address
 * mapping, page policy, scheduler and read/write mix, the invariants
 * that must hold regardless of configuration:
 *
 *  - every injected request is eventually answered (conservation),
 *  - bus utilisation and achieved bandwidth never exceed the peak,
 *  - read latency never beats the protocol floor,
 *  - row-hit rates stay in [0, 1],
 *  - no packets leak.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "dram/dram_ctrl.hh"
#include "harness/testbench.hh"
#include "mem/packet.hh"
#include "sim/logging.hh"
#include "trafficgen/random_gen.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using harness::CtrlModel;
using harness::SingleChannelSystem;

using ParamTuple =
    std::tuple<CtrlModel, AddrMapping, PagePolicy, SchedPolicy,
               unsigned /* readPct */>;

class ControllerProperties
    : public ::testing::TestWithParam<ParamTuple>
{
  public:
    static std::string
    paramName(const ::testing::TestParamInfo<ParamTuple> &info)
    {
        const auto &[model, map, page, sched, pct] = info.param;
        return std::string(harness::toString(model)) + "_" +
               toString(map) + "_" + toString(page) + "_" +
               toString(sched) + "_rd" + std::to_string(pct);
    }
};

TEST_P(ControllerProperties, InvariantsHoldUnderRandomTraffic)
{
    const auto &[model, map, page, sched, pct] = GetParam();

    std::uint64_t live_before = Packet::liveCount();
    {
        DRAMCtrlConfig cfg = testutil::noRefreshConfig();
        cfg.addrMapping = map;
        cfg.pagePolicy = page;
        cfg.schedPolicy = sched;
        cfg.writeLowThreshold = 0.0; // drain fully so runs terminate
        cfg.minWritesPerSwitch = 4;

        SingleChannelSystem tb(cfg, model);

        GenConfig gc;
        gc.windowSize = 1 << 22;
        gc.blockSize = 64;
        gc.readPct = pct;
        gc.minITT = fromNs(3);
        gc.maxITT = fromNs(30);
        gc.numRequests = 600;
        gc.seed = 17;
        auto &gen = tb.addGen<RandomGen>(gc);

        tb.runToCompletion([&] { return gen.done(); });

        // Conservation.
        ASSERT_TRUE(gen.done());
        EXPECT_EQ(gen.genStats().recvResponses.value(), 600.0);

        // Bandwidth and utilisation bounds.
        EXPECT_GE(tb.ctrl().busUtilisation(), 0.0);
        EXPECT_LE(tb.ctrl().busUtilisation(), 1.0 + 1e-9);
        EXPECT_LE(tb.ctrl().achievedBandwidthGBs(),
                  tb.ctrl().peakBandwidthGBs() + 1e-9);

        // Latency floor: frontend + tCL + tBURST + backend.
        if (pct > 0) {
            Tick floor = cfg.frontendLatency + cfg.timing.tCL +
                         cfg.timing.tBURST + cfg.backendLatency;
            EXPECT_GE(gen.avgReadLatencyNs(), toNs(floor) - 1e-9);
        }

        // Power inputs are sane for any configuration.
        PowerInputs in = tb.ctrl().powerInputs();
        EXPECT_GE(in.readBusFraction, 0.0);
        EXPECT_LE(in.readBusFraction, 1.0 + 1e-9);
        EXPECT_GE(in.writeBusFraction, 0.0);
        EXPECT_LE(in.writeBusFraction, 1.0 + 1e-9);
        EXPECT_LE(toSeconds(in.prechargeAllTime),
                  toSeconds(in.window) + 1e-12);
    }
    // No packet leaked anywhere in the system.
    EXPECT_EQ(Packet::liveCount(), live_before);
}

// The cycle model refuses the adaptive page policies
// (CycleDRAMCtrl::unsupportedFeature()), so the cross-product is
// instantiated separately per model.
INSTANTIATE_TEST_SUITE_P(
    EventModel, ControllerProperties,
    ::testing::Combine(
        ::testing::Values(CtrlModel::Event),
        ::testing::Values(AddrMapping::RoRaBaCoCh,
                          AddrMapping::RoRaBaChCo,
                          AddrMapping::RoCoRaBaCh),
        ::testing::Values(PagePolicy::Open, PagePolicy::OpenAdaptive,
                          PagePolicy::Closed,
                          PagePolicy::ClosedAdaptive),
        ::testing::Values(SchedPolicy::Fcfs, SchedPolicy::FrFcfs,
                          SchedPolicy::FrFcfsPrio),
        ::testing::Values(100u, 50u, 0u)),
    ControllerProperties::paramName);

INSTANTIATE_TEST_SUITE_P(
    CycleModel, ControllerProperties,
    ::testing::Combine(
        ::testing::Values(CtrlModel::Cycle),
        ::testing::Values(AddrMapping::RoRaBaCoCh,
                          AddrMapping::RoCoRaBaCh),
        ::testing::Values(PagePolicy::Open, PagePolicy::Closed),
        ::testing::Values(SchedPolicy::FrFcfs),
        ::testing::Values(100u, 50u, 0u)),
    ControllerProperties::paramName);

/**
 * Low-power / multi-rank feature matrix: the same invariants must
 * hold with power-down, self-refresh and per-rank refresh engaged in
 * any combination, on a two-rank channel.
 */
struct FeatureCombo
{
    bool powerDown;
    bool selfRefresh;
    bool perRankRefresh;
};

class FeatureProperties
    : public ::testing::TestWithParam<FeatureCombo>
{
  public:
    static std::string
    paramName(const ::testing::TestParamInfo<FeatureCombo> &info)
    {
        const FeatureCombo &c = info.param;
        std::string s;
        s += c.powerDown ? "pd" : "nopd";
        s += c.selfRefresh ? "_sr" : "";
        s += c.perRankRefresh ? "_rankref" : "";
        return s;
    }
};

TEST_P(FeatureProperties, InvariantsHoldWithFeaturesEngaged)
{
    const FeatureCombo &combo = GetParam();
    std::uint64_t live_before = Packet::liveCount();
    {
        DRAMCtrlConfig cfg = testutil::noRefreshConfig();
        cfg.org.ranksPerChannel = 2;
        cfg.org.channelCapacity *= 2;
        cfg.timing.tREFI = fromUs(2);
        cfg.writeLowThreshold = 0.0;
        cfg.enablePowerDown = combo.powerDown;
        cfg.enableSelfRefresh = combo.selfRefresh;
        cfg.selfRefreshDelay = fromUs(3);
        cfg.perRankRefresh = combo.perRankRefresh;

        SingleChannelSystem tb(cfg, CtrlModel::Event);

        GenConfig gc;
        gc.windowSize = 1 << 22;
        gc.readPct = 60;
        gc.minITT = fromNs(5);
        gc.maxITT = fromUs(4); // long gaps: sleep states engage
        gc.numRequests = 300;
        gc.seed = 29;
        auto &gen = tb.addGen<RandomGen>(gc);
        tb.runToCompletion([&] { return gen.done(); },
                           fromUs(500000));

        ASSERT_TRUE(gen.done());
        EXPECT_EQ(gen.genStats().recvResponses.value(), 300.0);
        EXPECT_LE(tb.ctrl().busUtilisation(), 1.0 + 1e-9);

        PowerInputs in = tb.ctrl().powerInputs();
        EXPECT_LE(toSeconds(in.powerDownTime + in.selfRefreshTime),
                  toSeconds(in.window) + 1e-12);
        if (!combo.powerDown) {
            EXPECT_EQ(in.powerDownTime, 0u);
            EXPECT_EQ(in.selfRefreshTime, 0u);
        }
    }
    EXPECT_EQ(Packet::liveCount(), live_before);
}

INSTANTIATE_TEST_SUITE_P(
    LowPowerMatrix, FeatureProperties,
    ::testing::Values(FeatureCombo{false, false, false},
                      FeatureCombo{true, false, false},
                      FeatureCombo{true, true, false},
                      FeatureCombo{false, false, true},
                      FeatureCombo{true, false, true},
                      FeatureCombo{true, true, true}),
    FeatureProperties::paramName);

/** Per-preset sanity: every canned memory works end to end. */
class PresetProperties
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetProperties, PresetServesTraffic)
{
    DRAMCtrlConfig cfg = presets::byName(GetParam());
    cfg.writeLowThreshold = 0.0;
    SingleChannelSystem tb(cfg, CtrlModel::Event);

    GenConfig gc;
    gc.windowSize = 1 << 20;
    gc.blockSize = 64;
    gc.readPct = 70;
    gc.minITT = gc.maxITT = cfg.timing.tBURST;
    gc.numRequests = 400;
    gc.seed = 23;
    auto &gen = tb.addGen<RandomGen>(gc);
    tb.runToCompletion([&] { return gen.done(); });

    EXPECT_TRUE(gen.done()) << GetParam();
    EXPECT_GT(tb.ctrl().busUtilisation(), 0.0);
    EXPECT_LE(tb.ctrl().busUtilisation(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetProperties,
                         ::testing::ValuesIn(presets::names()),
                         [](const auto &info) { return info.param; });

} // namespace
} // namespace dramctrl
