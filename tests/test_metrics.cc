/**
 * @file
 * MetricsRegistry tests: counter/gauge registration semantics, stats
 * tree attachment and flattening, path resolution, snapshot ordering,
 * and the JSON / Prometheus exposition writers (including escaping of
 * hostile names).
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dram/dram_ctrl.hh"
#include "obs/metrics.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using obs::MetricSample;
using obs::MetricsRegistry;
using testutil::TestRequestor;

TEST(Metrics, CountersAndGaugesRegisterOnFirstUse)
{
    MetricsRegistry reg;
    reg.counter("a.hits").inc();
    reg.counter("a.hits").inc(2);
    reg.gauge("a.depth").set(3.5);

    auto snap = reg.snapshot();
    ASSERT_EQ(snap.size(), 2u);
    // Sorted by path: a.depth before a.hits.
    EXPECT_EQ(snap[0].path, "a.depth");
    EXPECT_FALSE(snap[0].isCounter);
    EXPECT_DOUBLE_EQ(snap[0].value, 3.5);
    EXPECT_EQ(snap[1].path, "a.hits");
    EXPECT_TRUE(snap[1].isCounter);
    EXPECT_DOUBLE_EQ(snap[1].value, 3.0);
}

TEST(Metrics, TypeConflictIsFatal)
{
    MetricsRegistry reg;
    reg.counter("x");
    setThrowOnError(true);
    EXPECT_THROW(reg.gauge("x"), std::runtime_error);
    setThrowOnError(false);
}

TEST(Metrics, AttachedStatsTreeIsFlattened)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "mem_ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    TestRequestor req(sim, "req");
    req.port().bind(ctrl.port());
    req.inject(0, MemCmd::ReadReq, 0);
    sim.run(fromUs(1.0));

    // The simulator auto-attaches its root stats tree.
    auto snap = sim.metrics().snapshot();
    auto find = [&](const std::string &path) -> const MetricSample * {
        for (const auto &s : snap)
            if (s.path == path)
                return &s;
        return nullptr;
    };

    const MetricSample *reads = find("mem_ctrl.readReqs");
    ASSERT_NE(reads, nullptr);
    EXPECT_DOUBLE_EQ(reads->value, 1.0);
    EXPECT_TRUE(reads->isCounter);

    // Histograms flatten into digest leaves.
    EXPECT_NE(find("mem_ctrl.lat.total.count"), nullptr);
    EXPECT_NE(find("mem_ctrl.lat.total.p50"), nullptr);
    EXPECT_NE(find("mem_ctrl.lat.total.p99"), nullptr);
    // The attribution stages are part of the same namespace.
    EXPECT_NE(find("mem_ctrl.lat.queueing.p95"), nullptr);
    EXPECT_NE(find("mem_ctrl.lat.total.mean"), nullptr);

    // Snapshot ordering is sorted by path.
    for (std::size_t i = 1; i < snap.size(); ++i)
        EXPECT_LT(snap[i - 1].path, snap[i].path);
}

TEST(Metrics, ResolveStatFindsAttachedStats)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "mem_ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));

    EXPECT_NE(sim.metrics().resolveStat("mem_ctrl.readReqs"), nullptr);
    EXPECT_EQ(sim.metrics().resolveStat("mem_ctrl.nope"), nullptr);
    EXPECT_EQ(sim.metrics().resolveStat("nope.readReqs"), nullptr);
}

TEST(Metrics, DetachStatsRemovesTree)
{
    MetricsRegistry reg;
    Simulator sim;
    reg.attachStats(&sim.rootStats(), "x");
    reg.detachStats(&sim.rootStats());
    EXPECT_TRUE(reg.snapshot().empty());
}

TEST(Metrics, JsonWriterEscapesHostileNames)
{
    MetricsRegistry reg;
    // A preset/instance name with quotes, a backslash and a newline —
    // exactly what used to corrupt config-derived JSON output.
    reg.gauge("evil\"name\\with\nnewline").set(1.0);
    std::ostringstream os;
    reg.writeJson(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("evil\\\"name\\\\with\\nnewline"),
              std::string::npos)
        << json;
    // No raw newline survives inside the rendered key.
    EXPECT_EQ(json.find("with\nnewline"), std::string::npos);
}

TEST(Metrics, JsonWriterEmitsNullForNonFinite)
{
    MetricsRegistry reg;
    reg.gauge("bad").set(std::numeric_limits<double>::quiet_NaN());
    reg.gauge("good").set(2.0);
    std::ostringstream os;
    reg.writeJson(os);
    EXPECT_NE(os.str().find("\"bad\": null"), std::string::npos)
        << os.str();
    EXPECT_NE(os.str().find("\"good\": 2"), std::string::npos);
}

TEST(Metrics, PromWriterFollowsExpositionFormat)
{
    MetricsRegistry reg;
    reg.counter("batch.jobs_completed", "jobs finished").inc(5);
    reg.gauge("sim.tick", "current tick").set(123456.0);
    std::ostringstream os;
    reg.writeProm(os);
    const std::string prom = os.str();

    // Counters: sanitised, prefixed, _total suffix, HELP/TYPE lines.
    EXPECT_NE(prom.find("# HELP dramctrl_batch_jobs_completed_total "
                        "jobs finished"),
              std::string::npos)
        << prom;
    EXPECT_NE(prom.find("# TYPE dramctrl_batch_jobs_completed_total "
                        "counter"),
              std::string::npos);
    EXPECT_NE(prom.find("dramctrl_batch_jobs_completed_total 5"),
              std::string::npos);
    EXPECT_NE(prom.find("# TYPE dramctrl_sim_tick gauge"),
              std::string::npos);
    EXPECT_NE(prom.find("dramctrl_sim_tick 123456"),
              std::string::npos);
    // Exposition format requires a trailing newline.
    ASSERT_FALSE(prom.empty());
    EXPECT_EQ(prom.back(), '\n');
}

TEST(Metrics, PromWriterSanitisesHostileMetricNames)
{
    MetricsRegistry reg;
    reg.gauge("evil\"name.with spaces-and/slashes").set(1.0);
    std::ostringstream os;
    reg.writeProm(os);
    const std::string prom = os.str();
    EXPECT_NE(
        prom.find("dramctrl_evil_name_with_spaces_and_slashes 1"),
        std::string::npos)
        << prom;
    // Nothing outside [a-zA-Z0-9_] leaks into a metric name.
    for (const char c : std::string("\" /-"))
        EXPECT_EQ(prom.find(std::string("dramctrl_evil") + c),
                  std::string::npos);
}

} // namespace
} // namespace dramctrl
