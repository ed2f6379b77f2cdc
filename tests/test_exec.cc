/**
 * @file
 * Batch-engine unit tests: the worker pool runs everything it is
 * given, job seeds derive reproducibly, and BatchRunner delivers
 * outcomes in submission order with identical bytes at any width and
 * per-job failure isolation; and exec::checkSpec() rejects every
 * sweep spec it cannot run.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "exec/sweep.hh"
#include "exec/thread_pool.hh"
#include "sim/random.hh"

using namespace dramctrl;
using namespace dramctrl::exec;

TEST(Exec, ThreadPoolRunsAllTasks)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.numThreads(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        pool.post([&count] { ++count; });
    pool.drain();
    EXPECT_EQ(count.load(), 200);

    // The pool is reusable after a drain.
    pool.post([&count] { ++count; });
    pool.drain();
    EXPECT_EQ(count.load(), 201);
}

TEST(Exec, ThreadPoolClampsToOneWorker)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.numThreads(), 1u);
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

TEST(Exec, DeriveSeedIsStableAndWellMixed)
{
    // Stability: the derivation is part of the repro-file contract
    // (a recorded (master, index) pair must replay forever).
    EXPECT_EQ(deriveSeed(1, 0), deriveSeed(1, 0));

    std::vector<std::uint64_t> seen;
    for (std::uint64_t master : {1ull, 2ull, 12345ull}) {
        for (std::uint64_t idx = 0; idx < 64; ++idx)
            seen.push_back(deriveSeed(master, idx));
    }
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()),
              seen.end())
        << "derived seeds must be distinct across masters and "
           "indices";
}

TEST(Exec, BatchRunnerDeliversInSubmissionOrder)
{
    BatchRunner runner(4);
    EXPECT_EQ(runner.jobs(), 4u);

    std::size_t expected = 0;
    std::size_t failures = runner.run<int>(
        64, [](std::size_t i) { return static_cast<int>(i) * 3; },
        [&](const JobOutcome<int> &out) {
            EXPECT_EQ(out.index, expected);
            EXPECT_TRUE(out.ok);
            EXPECT_EQ(out.value, static_cast<int>(expected) * 3);
            ++expected;
        });
    EXPECT_EQ(failures, 0u);
    EXPECT_EQ(expected, 64u);
}

namespace {

/** A seed-dependent pseudo-workload with a textual result. */
std::string
walk(std::uint64_t master, std::size_t index)
{
    Random rng(deriveSeed(master, index));
    std::uint64_t acc = 0;
    for (int step = 0; step < 50; ++step)
        acc ^= rng.next();
    return std::to_string(index) + ":" + std::to_string(acc);
}

std::string
runWalkBatch(unsigned jobs)
{
    BatchRunner runner(jobs);
    std::string out;
    runner.run<std::string>(
        40, [](std::size_t i) { return walk(7, i); },
        [&out](const JobOutcome<std::string> &o) {
            out += o.value;
            out += '\n';
        });
    return out;
}

} // namespace

TEST(Exec, BatchRunnerByteIdenticalAcrossWidths)
{
    std::string serial = runWalkBatch(1);
    EXPECT_EQ(serial, runWalkBatch(4));
    EXPECT_EQ(serial, runWalkBatch(8));
}

TEST(Exec, BatchRunnerIsolatesFailures)
{
    BatchRunner runner(4);
    std::vector<bool> ok;
    std::string error3;
    std::size_t failures = runner.run<int>(
        8,
        [](std::size_t i) {
            if (i == 3)
                throw std::runtime_error("boom at 3");
            return static_cast<int>(i);
        },
        [&](const JobOutcome<int> &out) {
            ok.push_back(out.ok);
            if (out.index == 3)
                error3 = out.error;
        });
    EXPECT_EQ(failures, 1u);
    ASSERT_EQ(ok.size(), 8u);
    for (std::size_t i = 0; i < ok.size(); ++i)
        EXPECT_EQ(ok[i], i != 3) << "job " << i;
    EXPECT_NE(error3.find("boom at 3"), std::string::npos);
}

TEST(Exec, RunCollectReturnsAllOutcomesInOrder)
{
    BatchRunner runner(3);
    auto all = runner.runCollect<std::size_t>(
        17, [](std::size_t i) { return i * i; });
    ASSERT_EQ(all.size(), 17u);
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i].index, i);
        EXPECT_TRUE(all[i].ok);
        EXPECT_EQ(all[i].value, i * i);
        EXPECT_GE(all[i].hostSeconds, 0.0);
    }
}

namespace {

/** One checkSpec() verdict: a default spec with one edit applied. */
struct SpecCase
{
    std::string name;
    std::function<void(SweepSpec &)> edit;
    bool accepted = false;
};

std::vector<SpecCase>
specCases()
{
    using harness::CtrlModel;
    return {
        {"accepted",
         [](SweepSpec &s) {
             s.patterns = {"linear", "random", "dram", "trace"};
             s.tracePath = "stimulus.dtrc";
             s.models = {CtrlModel::Event, CtrlModel::Cycle};
             s.plugins = "ecc,prac";
         },
         true},
        {"unknown_preset", [](SweepSpec &s) { s.presets = {"ddr9"}; }},
        {"unknown_pattern",
         [](SweepSpec &s) { s.patterns = {"random", "zigzag"}; }},
        {"trace_without_path",
         [](SweepSpec &s) { s.patterns = {"trace"}; }},
        {"trace_with_warmup",
         [](SweepSpec &s) {
             s.patterns = {"trace"};
             s.tracePath = "stimulus.dtrc";
             s.warmupRequests = 100;
         }},
        {"trace_scale_zero", [](SweepSpec &s) { s.traceScale = 0; }},
        {"trace_scale_negative",
         [](SweepSpec &s) { s.traceScale = -1; }},
        {"read_pct_above_100",
         [](SweepSpec &s) { s.readPcts = {50, 101}; }},
        {"refmgr_pb_on_cycle_axis",
         [](SweepSpec &s) {
             s.plugins = "refmgr-pb";
             s.models = {CtrlModel::Event, CtrlModel::Cycle};
         }},
        {"empty_axis", [](SweepSpec &s) { s.ittNs.clear(); }},
        {"zero_channels", [](SweepSpec &s) { s.channels = 0; }},
        {"dram_multi_channel",
         [](SweepSpec &s) {
             s.patterns = {"random", "dram"};
             s.channels = 4;
         }},
        {"warmup_multi_channel",
         [](SweepSpec &s) {
             s.channels = 4;
             s.warmupRequests = 100;
         }},
    };
}

void
PrintTo(const SpecCase &c, std::ostream *os)
{
    *os << c.name;
}

class CheckSpec : public testing::TestWithParam<SpecCase>
{
};

TEST_P(CheckSpec, Verdict)
{
    SweepSpec spec;
    GetParam().edit(spec);
    std::string err;
    EXPECT_EQ(checkSpec(spec, &err), GetParam().accepted) << err;
    EXPECT_EQ(err.empty(), GetParam().accepted) << err;
    // The error text is optional for the caller.
    EXPECT_EQ(checkSpec(spec, nullptr), GetParam().accepted);
}

/**
 * Every row of CycleDRAMCtrl::unsupportedFeature() on a cycle axis is
 * refused up front, naming the feature; the same grid on the event
 * model alone is accepted.
 */
TEST(CheckSpecCycleAxis, RefusesEveryFeatureTheCycleModelLacks)
{
    using harness::CtrlModel;
    auto verdict = [](const SweepSpec &spec, const char *feature) {
        SweepSpec cycle = spec;
        cycle.models = {CtrlModel::Event, CtrlModel::Cycle};
        std::string err;
        EXPECT_FALSE(checkSpec(cycle, &err)) << feature;
        EXPECT_NE(err.find(feature), std::string::npos) << err;
        SweepSpec event = spec;
        event.models = {CtrlModel::Event};
        EXPECT_TRUE(checkSpec(event, &err)) << feature << ": " << err;
    };

    for (PagePolicy p :
         {PagePolicy::OpenAdaptive, PagePolicy::ClosedAdaptive}) {
        SweepSpec spec;
        spec.pages = {PagePolicy::Open, p};
        verdict(spec, toString(p));
    }
    SweepSpec plugins;
    plugins.plugins = "ecc,refmgr-pb";
    verdict(plugins, "refmgr-pb");

    // The low-power and per-rank rows come from a preset (a config
    // file's, on the command line): register one for each.
    const std::pair<const char *, std::function<void(DRAMCtrlConfig &)>>
        rows[] = {
            {"self-refresh",
             [](DRAMCtrlConfig &c) {
                 c.enablePowerDown = true;
                 c.enableSelfRefresh = true;
             }},
            {"power-down",
             [](DRAMCtrlConfig &c) { c.enablePowerDown = true; }},
            {"per-rank refresh",
             [](DRAMCtrlConfig &c) { c.perRankRefresh = true; }},
        };
    for (const auto &[feature, with] : rows) {
        presets::registerPreset("test_cycle_probe", [with = with] {
            DRAMCtrlConfig cfg = presets::ddr3_1333();
            with(cfg);
            return cfg;
        });
        SweepSpec spec;
        spec.presets = {"ddr3_1333", "test_cycle_probe"};
        verdict(spec, feature);
    }
    // Later tests see the probe name as a plain preset.
    presets::registerPreset("test_cycle_probe",
                            [] { return presets::ddr3_1333(); });
}

INSTANTIATE_TEST_SUITE_P(
    Exec, CheckSpec, testing::ValuesIn(specCases()),
    [](const testing::TestParamInfo<SpecCase> &info) {
        return info.param.name;
    });

} // namespace
