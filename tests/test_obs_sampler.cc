/**
 * @file
 * Periodic stats-sampler tests: row cadence and tick alignment, stat
 * binding by path and by group, CSV/JSONL output shape, the
 * interaction with a mid-run statistics reset, and lazily folded
 * stats reading the same in samples and live snapshots as in a dump.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "ckpt/ckpt.hh"
#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "harness/testbench.hh"
#include "obs/metrics.hh"
#include "obs/stats_sampler.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "test_util.hh"
#include "trafficgen/random_gen.hh"

namespace dramctrl {
namespace {

using obs::StatsSampler;
using testutil::TestRequestor;

std::vector<std::string>
splitLines(const std::string &s)
{
    std::vector<std::string> lines;
    std::istringstream is(s);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

class SamplerTest : public ::testing::Test
{
  protected:
    void
    build()
    {
        // Tear the previous system down children-first so nothing
        // outlives the Simulator it references (tests may rebuild).
        req.reset();
        ctrl.reset();
        sim.reset();
        sim = std::make_unique<Simulator>();
        DRAMCtrlConfig cfg = testutil::bareTimingConfig();
        ctrl = std::make_unique<DRAMCtrl>(
            *sim, "mem_ctrl", cfg,
            AddrRange(0, cfg.org.channelCapacity));
        req = std::make_unique<TestRequestor>(*sim, "req");
        req->port().bind(ctrl->port());
    }

    std::unique_ptr<Simulator> sim;
    std::unique_ptr<DRAMCtrl> ctrl;
    std::unique_ptr<TestRequestor> req;
};

TEST_F(SamplerTest, RowCadenceAndTickAlignment)
{
    build();
    std::ostringstream os;
    const Tick interval = fromNs(100);
    StatsSampler sampler(*sim, "sampler", interval, os);
    ASSERT_TRUE(sampler.addStat("mem_ctrl.readReqs"));

    for (unsigned i = 0; i < 4; ++i)
        req->inject(0, MemCmd::ReadReq, i * 64);
    sim->run(fromNs(1000));

    // Samples land at every interval multiple in (0, 1000ns].
    EXPECT_EQ(sampler.samplesTaken(), 10u);

    auto lines = splitLines(os.str());
    ASSERT_EQ(lines.size(), 11u); // header + 10 rows
    EXPECT_EQ(lines[0], "tick,mem_ctrl.readReqs");
    for (std::size_t i = 1; i < lines.size(); ++i) {
        Tick tick = std::stoull(lines[i]);
        EXPECT_EQ(tick % interval, 0u) << lines[i];
        EXPECT_EQ(tick, i * interval) << lines[i];
    }

    // By the last sample every read was accepted.
    EXPECT_NE(lines.back().find(",4"), std::string::npos)
        << lines.back();
}

TEST_F(SamplerTest, UnknownStatPathRejected)
{
    build();
    std::ostringstream os;
    StatsSampler sampler(*sim, "sampler", fromNs(100), os);
    EXPECT_FALSE(sampler.addStat("mem_ctrl.noSuchStat"));
    EXPECT_FALSE(sampler.addStat("no_such_group.readReqs"));
    EXPECT_EQ(sampler.numStats(), 0u);
}

TEST_F(SamplerTest, AddGroupStatsBindsWholeGroup)
{
    build();
    std::ostringstream os;
    StatsSampler sampler(*sim, "sampler", fromNs(100), os);
    ASSERT_TRUE(sampler.addGroupStats("mem_ctrl"));
    EXPECT_GT(sampler.numStats(), 10u);
    EXPECT_FALSE(sampler.addGroupStats("not_there"));
}

TEST_F(SamplerTest, ZeroIntervalIsFatal)
{
    build();
    std::ostringstream os;
    setThrowOnError(true);
    EXPECT_THROW(StatsSampler(*sim, "sampler", 0, os),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST_F(SamplerTest, JsonlRowsAreSelfContained)
{
    build();
    std::ostringstream os;
    StatsSampler sampler(*sim, "sampler", fromNs(200), os,
                         StatsSampler::Format::Jsonl);
    ASSERT_TRUE(sampler.addStat("mem_ctrl.readReqs"));
    ASSERT_TRUE(sampler.addStat("mem_ctrl.bytesRead"));

    req->inject(0, MemCmd::ReadReq, 0);
    sim->run(fromNs(400));

    auto lines = splitLines(os.str());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].find("{\"tick\": "), 0u) << lines[0];
    EXPECT_NE(lines[1].find("\"mem_ctrl.readReqs\": 1"),
              std::string::npos)
        << lines[1];
    EXPECT_NE(lines[1].find("\"mem_ctrl.bytesRead\": 64"),
              std::string::npos)
        << lines[1];
}

TEST_F(SamplerTest, SurvivesStatsResetAndShowsIt)
{
    build();
    std::ostringstream os;
    StatsSampler sampler(*sim, "sampler", fromNs(100), os);
    ASSERT_TRUE(sampler.addStat("mem_ctrl.readReqs"));

    for (unsigned i = 0; i < 4; ++i)
        req->inject(0, MemCmd::ReadReq, i * 64);
    sim->run(fromNs(500));
    std::uint64_t before = sampler.samplesTaken();
    EXPECT_EQ(before, 5u);

    // Warm-up over: reset the counters mid-run. The sampler keeps its
    // bindings and its schedule; the series shows the restart.
    sim->resetStats();
    sampler.sampleNow();
    auto lines = splitLines(os.str());
    EXPECT_EQ(lines.back(), "500000,0") << lines.back();

    req->inject(fromNs(500), MemCmd::ReadReq, 0);
    sim->run(fromNs(800));
    EXPECT_EQ(sampler.samplesTaken(), before + 1 + 3);
    lines = splitLines(os.str());
    // Post-reset counters restart from zero, so the final row counts
    // only the one post-reset read.
    EXPECT_EQ(lines.back(), "800000,1") << lines.back();
}

TEST_F(SamplerTest, SamplingTimelineSurvivesCheckpoint)
{
    // Uninterrupted reference run: 0 -> 800ns in one go.
    build();
    std::ostringstream refOs;
    auto ref = std::make_unique<StatsSampler>(*sim, "sampler",
                                              fromNs(100), refOs);
    ASSERT_TRUE(ref->addStat("mem_ctrl.readReqs"));
    for (unsigned i = 0; i < 4; ++i)
        req->inject(0, MemCmd::ReadReq, i * 64);
    sim->run(fromNs(250));
    std::string ckpt_data = ckpt::saveToString(*sim);
    std::string prefix = refOs.str();
    sim->run(fromNs(800));
    EXPECT_EQ(ref->samplesTaken(), 8u);
    ref.reset(); // before build() replaces the simulator it samples

    // Restored run: same wiring, resume from 250ns to 800ns. The
    // sampler's next-sample event, sample index and header state come
    // from the checkpoint, so the rows it appends are byte-identical
    // to the tail of the uninterrupted run.
    build();
    std::ostringstream restOs;
    StatsSampler rest(*sim, "sampler", fromNs(100), restOs);
    ASSERT_TRUE(rest.addStat("mem_ctrl.readReqs"));
    ckpt::restoreFromString(*sim, ckpt_data);
    sim->run(fromNs(800));

    EXPECT_EQ(rest.samplesTaken(), 8u);
    // No second header, and prefix + restored tail == reference.
    EXPECT_EQ(restOs.str().find("tick,"), std::string::npos);
    EXPECT_EQ(prefix + restOs.str(), refOs.str());
}

TEST_F(SamplerTest, SampleNowWritesHeaderOnce)
{
    build();
    std::ostringstream os;
    StatsSampler sampler(*sim, "sampler", fromNs(100), os);
    ASSERT_TRUE(sampler.addStat("mem_ctrl.writeReqs"));
    sampler.sampleNow();
    sampler.sampleNow();
    auto lines = splitLines(os.str());
    ASSERT_EQ(lines.size(), 3u);
    EXPECT_EQ(lines[0], "tick,mem_ctrl.writeReqs");
    EXPECT_EQ(lines[1], lines[2]);
}

/** Value of @p path in a full stats dump taken now. */
double
dumpedValue(Simulator &sim, const std::string &path)
{
    std::ostringstream os;
    sim.dumpStatsJson(os);
    return sim.rootStats().resolve(path)->sampleValue();
}

TEST(SamplerLazyStatsTest, PracRowsTrackedMatchesDumpMidRun)
{
    // PRAC publishes rowsTracked only from its stats-dump hook, so a
    // sample or a live snapshot that skipped the hook would read a
    // stale value (zero before the first dump).
    DRAMCtrlConfig cfg = presets::ddr3_1600();
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("prac", cfg, err)) << err;
    cfg.plugins[0].pracThreshold = 4;
    cfg.check();
    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);
    Simulator &sim = tb.sim();

    std::ostringstream os;
    StatsSampler sampler(sim, "sampler", fromNs(1000), os);
    const std::string path = "mem_ctrl.prac.rowsTracked";
    ASSERT_TRUE(sampler.addStat(path));

    GenConfig gc;
    gc.windowSize = 1ULL << 16;
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = 300;
    gc.seed = 7;
    gc.readPct = 70;
    tb.addGen<RandomGen>(gc);

    // Mid-run, at a sampling tick: the row matches a dump there.
    sim.run(fromNs(1000));
    auto lines = splitLines(os.str());
    const double at_sample = dumpedValue(sim, path);
    EXPECT_GT(at_sample, 0.0);
    EXPECT_EQ(lines.back(),
              "1000000," + std::to_string(static_cast<int>(at_sample)));

    // A live snapshot between samples matches a dump there too, not
    // the value the last sample and dump left behind.
    sim.run(fromNs(1700));
    double snapshot = -1;
    for (const obs::MetricSample &m : sim.metrics().snapshot())
        if (m.path == path)
            snapshot = m.value;
    const double at_snapshot = dumpedValue(sim, path);
    EXPECT_NE(at_snapshot, at_sample);
    EXPECT_EQ(snapshot, at_snapshot);
}

} // namespace
} // namespace dramctrl
