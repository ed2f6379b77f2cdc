/**
 * @file
 * Golden-stats regression corpus (`ctest -R golden_`).
 *
 * Each DRAM preset runs a short deterministic workload per traffic
 * shape (linear, random, mixed read/write, write drain) on both
 * controller models, and the full stats JSON is compared byte-for-byte
 * against the reference under tests/golden/. Any change to controller
 * timing, scheduling, stats bookkeeping or the JSON writer shows up as
 * a diff here — if the change is intended, regenerate with
 * tools/regen_golden.sh and review the diff like any other code change.
 * The sweep-row case pins the rows exec::runSweepPoint() produces the
 * same way.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/workload.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "exec/batch_runner.hh"
#include "exec/sweep.hh"
#include "harness/config_file.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "trafficgen/trace.hh"
#include "trafficgen/trace_file.hh"

namespace dramctrl {
namespace {

struct GoldenCase
{
    std::string preset;
    /** linear | random | mixed | writedrain | closed | multiburst */
    std::string shape;
    harness::CtrlModel model = harness::CtrlModel::Event;
};

std::string
goldenName(const GoldenCase &c)
{
    return "golden_" + c.preset + "_" + c.shape +
           (c.model == harness::CtrlModel::Cycle ? "_cycle" : "");
}

std::string
caseName(const testing::TestParamInfo<GoldenCase> &info)
{
    return goldenName(info.param);
}

/**
 * Compare @p got with the reference tests/golden/<name>.json, or
 * rewrite that reference when GOLDEN_REGEN is set.
 */
void
expectMatchesGolden(const std::string &name, const std::string &got)
{
    const std::string path = std::string(GOLDEN_DIR) + "/" + name + ".json";
    if (std::getenv("GOLDEN_REGEN") != nullptr) {
        std::ofstream out(path);
        ASSERT_TRUE(out.is_open()) << "cannot write " << path;
        out << got;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open())
        << "missing reference " << path
        << " — generate the corpus with tools/regen_golden.sh";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "stats drifted from the reference; if intended, regenerate "
        << "with tools/regen_golden.sh and review the diff";
}

/** Run the canned workload for @p c and return the stats JSON. */
std::string
runCase(const GoldenCase &c)
{
    DRAMCtrlConfig cfg = presets::byName(c.preset);
    cfg.writeLowThreshold = 0.0;
    if (c.model == harness::CtrlModel::Cycle) {
        // The cycle model implements only the plain page policies.
        if (cfg.pagePolicy == PagePolicy::OpenAdaptive)
            cfg.pagePolicy = PagePolicy::Open;
        else if (cfg.pagePolicy == PagePolicy::ClosedAdaptive)
            cfg.pagePolicy = PagePolicy::Closed;
    }
    if (c.shape == "closed")
        cfg.pagePolicy = PagePolicy::Closed;
    cfg.check();

    harness::SingleChannelSystem tb(cfg, c.model);

    GenConfig gc;
    gc.windowSize =
        std::min<std::uint64_t>(cfg.org.channelCapacity, 1ULL << 22);
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = 300;
    gc.seed = 7;

    BaseGen *gen = nullptr;
    if (c.shape == "multiburst") {
        // Every request spans two bursts, so each is split across
        // cycles and its burst coordinates are decoded twice.
        gc.readPct = 50;
        gc.blockSize = 2 * static_cast<unsigned>(cfg.org.burstSize());
        gen = &tb.addGen<RandomGen>(gc);
    } else if (c.shape == "linear") {
        gc.readPct = 100;
        gen = &tb.addGen<LinearGen>(gc);
    } else if (c.shape == "random") {
        gc.readPct = 100;
        gen = &tb.addGen<RandomGen>(gc);
    } else if (c.shape == "mixed" || c.shape == "closed") {
        gc.readPct = 50;
        gen = &tb.addGen<RandomGen>(gc);
    } else { // writedrain: all writes, exercises the drain mode
        gc.readPct = 0;
        gen = &tb.addGen<LinearGen>(gc);
    }

    tb.runToCompletion([&] { return gen->done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenStats : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenStats, MatchesReference)
{
    expectMatchesGolden(goldenName(GetParam()), runCase(GetParam()));
}

std::vector<GoldenCase>
allCases()
{
    std::vector<GoldenCase> cases;
    for (const std::string &preset : presets::names())
        for (const char *shape :
             {"linear", "random", "mixed", "writedrain"})
            cases.push_back({preset, shape});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenStats,
                         testing::ValuesIn(allCases()), caseName);

/**
 * The same corpus on the cycle-based comparator, plus a closed-page
 * case and a multi-burst case (requests of two bursts each), so the
 * cycle model's per-cycle scheduling work is pinned byte-for-byte too.
 */
std::vector<GoldenCase>
cycleCases()
{
    std::vector<GoldenCase> cases = allCases();
    for (GoldenCase &c : cases)
        c.model = harness::CtrlModel::Cycle;
    cases.push_back({"ddr3_1333", "closed", harness::CtrlModel::Cycle});
    cases.push_back(
        {"ddr3_1333", "multiburst", harness::CtrlModel::Cycle});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(CycleCorpus, GoldenStats,
                         testing::ValuesIn(cycleCases()), caseName);

/**
 * Config-file twin: the committed examples/ddr4.json run through the
 * same workload must match the ddr4_2400 preset's reference
 * byte-for-byte — file-loaded and factory-built configurations are
 * interchangeable all the way down to the stats JSON. Never
 * regenerates: golden_ddr4_2400_mixed.json is owned by the preset
 * case above.
 */
TEST(GoldenConfigFile, ExampleDdr4MatchesPresetReference)
{
    DRAMCtrlConfig cfg = harness::loadConfigFile(
        std::string(EXAMPLES_DIR) + "/ddr4.json");
    cfg.writeLowThreshold = 0.0;
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);
    GenConfig gc;
    gc.windowSize =
        std::min<std::uint64_t>(cfg.org.channelCapacity, 1ULL << 22);
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = 300;
    gc.seed = 7;
    gc.readPct = 50;
    BaseGen &gen = tb.addGen<RandomGen>(gc);
    tb.runToCompletion([&] { return gen.done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";

    const std::string path =
        std::string(GOLDEN_DIR) + "/golden_ddr4_2400_mixed.json";
    if (std::getenv("GOLDEN_REGEN") != nullptr)
        GTEST_SKIP() << "reference owned by the preset case";
    std::ifstream in(path);
    ASSERT_TRUE(in.is_open())
        << "missing reference " << path
        << " — generate the corpus with tools/regen_golden.sh";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(os.str(), want.str())
        << "a config-file run drifted from its preset twin";
}

/**
 * Plugin corpus: the same short deterministic workloads with a
 * controller plugin chain attached, locking down the plugin counters
 * (ECC decode classes, PRAC alerts/mitigations, refresh-manager
 * command counts) and their interaction with the controller's own
 * statistics. Seeded ECC injection and the rotation state are pure
 * functions of the configuration, so these references are as stable
 * as the plain corpus.
 */
struct PluginGoldenCase
{
    std::string name;    // golden_plugin_<name>.json
    std::string preset;
    std::string plugins; // parsePluginList() csv
    std::string shape;   // linear | random | mixed
};

std::string
pluginGoldenName(const PluginGoldenCase &c)
{
    return "golden_plugin_" + c.name;
}

std::string
pluginCaseName(const testing::TestParamInfo<PluginGoldenCase> &info)
{
    return pluginGoldenName(info.param);
}

std::string
runPluginCase(const PluginGoldenCase &c)
{
    DRAMCtrlConfig cfg = presets::byName(c.preset);
    cfg.writeLowThreshold = 0.0;
    std::string err;
    if (!plugin::parsePluginList(c.plugins, cfg, err))
        ADD_FAILURE() << err;
    for (PluginSpec &p : cfg.plugins) {
        if (p.kind == "ecc") {
            p.eccBer = 1e-3;
            p.eccSeed = 99;
        } else if (p.kind == "prac") {
            p.pracThreshold = 4;
        } else if (p.kind == "refmgr-pb") {
            // Shorten tREFI so the short run sees the rotation.
            cfg.timing.tREFI = fromUs(1.0);
        }
    }
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);

    GenConfig gc;
    gc.windowSize = 1ULL << 16; // few rows: PRAC thresholds trip
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = 300;
    gc.seed = 7;
    gc.readPct = c.shape == "linear" ? 100
                 : c.shape == "mixed" ? 50
                                      : 70;

    BaseGen *gen = c.shape == "linear"
                       ? static_cast<BaseGen *>(&tb.addGen<LinearGen>(gc))
                       : static_cast<BaseGen *>(&tb.addGen<RandomGen>(gc));
    tb.runToCompletion([&] { return gen->done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenPluginStats
    : public testing::TestWithParam<PluginGoldenCase>
{
};

TEST_P(GoldenPluginStats, MatchesReference)
{
    expectMatchesGolden(pluginGoldenName(GetParam()),
                        runPluginCase(GetParam()));
}

std::vector<PluginGoldenCase>
pluginCases()
{
    return {
        {"ddr3_1600_ecc", "ddr3_1600", "ecc", "mixed"},
        {"ddr3_1600_prac", "ddr3_1600", "prac", "random"},
        {"ddr3_1600_refmgr_pb", "ddr3_1600", "refmgr-pb", "random"},
        {"lpddr3_1600_chain", "lpddr3_1600", "ecc,prac,refmgr",
         "mixed"},
    };
}

INSTANTIATE_TEST_SUITE_P(PluginCorpus, GoldenPluginStats,
                         testing::ValuesIn(pluginCases()),
                         pluginCaseName);

/**
 * Multi-channel corpus over the system presets (hmc_stack_*). One
 * generator per channel drives a channel-interleaved slice; the total
 * request budget is fixed so the 256-channel stack stays as quick as
 * the 16-channel one. Shard merge order is deterministic, so the
 * stats JSON is reference-comparable exactly like the single-channel
 * corpus (and byte-identical at any --sim-threads, which the shard
 * ctest cases assert separately).
 */
std::string
runSystemCase(const GoldenCase &c)
{
    harness::MultiChannelConfig mcfg =
        harness::systemPresetByName(c.preset);
    mcfg.ctrl.writeLowThreshold = 0.0;
    mcfg.ctrl.check();

    harness::MultiChannelSystem mc(mcfg);

    constexpr unsigned kTotalRequests = 768;
    GenConfig gc;
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests =
        std::max(1u, kTotalRequests / mcfg.channels);
    gc.readPct = c.shape == "linear" ? 100 : 50;

    std::vector<BaseGen *> gens;
    for (unsigned i = 0; i < mcfg.channels; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, mcfg.channels,
                                              mc.totalCapacity());
        g.seed = exec::deriveSeed(7, i);
        if (c.shape == "linear")
            gens.push_back(&mc.addGen<LinearGen>(g));
        else
            gens.push_back(&mc.addGen<RandomGen>(g));
    }

    mc.runToCompletion();

    std::ostringstream os;
    mc.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenSystemStats : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(GoldenSystemStats, MatchesReference)
{
    expectMatchesGolden(goldenName(GetParam()),
                        runSystemCase(GetParam()));
}

std::vector<GoldenCase>
systemCases()
{
    std::vector<GoldenCase> cases;
    for (const std::string &preset : harness::systemPresetNames())
        for (const char *shape : {"linear", "random"})
            cases.push_back({preset, shape});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(SystemCorpus, GoldenSystemStats,
                         testing::ValuesIn(systemCases()), caseName);

/**
 * Closed-loop corpus: the fig8 system (four timing cores with private
 * L1s, a shared L2 and one closed-page DDR3-1333 channel) on three
 * workloads, plus the cycle model on canneal. Each run warms up,
 * resets the statistics part way through and then runs to
 * completion, so the references pin the core statistics (cycles,
 * memStallCycles, committedOps) across a reset as well as the memory
 * side: any change to when or in which order the cores tick shows up
 * here.
 */
struct MultiCoreGoldenCase
{
    std::string workload;
    harness::CtrlModel model = harness::CtrlModel::Event;
};

std::string
multiCoreGoldenName(const MultiCoreGoldenCase &c)
{
    return "golden_multicore_" + c.workload +
           (c.model == harness::CtrlModel::Cycle ? "_cycle" : "");
}

std::string
multiCoreCaseName(const testing::TestParamInfo<MultiCoreGoldenCase> &info)
{
    return multiCoreGoldenName(info.param);
}

std::string
runMultiCoreCase(const MultiCoreGoldenCase &c)
{
    harness::MultiCoreConfig cfg;
    cfg.numCores = 4;
    cfg.channels = 1;
    cfg.ctrl = presets::ddr3_1333();
    cfg.ctrl.pagePolicy = PagePolicy::Closed;
    cfg.ctrl.addrMapping = AddrMapping::RoCoRaBaCh;
    cfg.model = c.model;
    cfg.opsPerCore = 4000;
    cfg.seed = 9;
    harness::MultiCoreSystem sys(cfg, workloads::byName(c.workload));

    harness::runUntil(
        sys.sim(), [&] { return sys.core(0).committed() >= 1000; },
        fromNs(100.0));
    sys.sim().resetStats();
    sys.runToCompletion();

    std::ostringstream os;
    sys.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenMultiCoreStats
    : public testing::TestWithParam<MultiCoreGoldenCase>
{
};

TEST_P(GoldenMultiCoreStats, MatchesReference)
{
    expectMatchesGolden(multiCoreGoldenName(GetParam()),
                        runMultiCoreCase(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    MultiCoreCorpus, GoldenMultiCoreStats,
    testing::Values(
        MultiCoreGoldenCase{"canneal"},
        MultiCoreGoldenCase{"blackscholes"},
        MultiCoreGoldenCase{"fluidanimate"},
        MultiCoreGoldenCase{"canneal", harness::CtrlModel::Cycle}),
    multiCoreCaseName);

/**
 * Trace-replay corpus: the committed example trace under
 * tests/traces/ replayed through DDR3-1333. The binary (.dtrc) and
 * text (.txt) twins are the same 64-request stream, so both runs are
 * compared against the one reference — locking down both the decode
 * paths and the replay engine at once.
 */
std::string
runTraceCase(const std::string &trace_file)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0;
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);
    TracePlayer &player = tb.addGen<TracePlayer>(
        makeTracePlayerConfig(std::string(TRACES_DIR) + "/" +
                              trace_file));
    tb.runToCompletion([&] { return player.done(); });

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    os << "\n";
    return os.str();
}

class GoldenTraceReplay : public testing::TestWithParam<std::string>
{
};

TEST_P(GoldenTraceReplay, MatchesReference)
{
    const std::string path =
        std::string(GOLDEN_DIR) + "/golden_trace_replay.json";
    const std::string got = runTraceCase(GetParam());

    // Only the .dtrc run regenerates, so the text twin still
    // compares against the shared reference under GOLDEN_REGEN.
    if (std::getenv("GOLDEN_REGEN") != nullptr &&
        GetParam() == "example.dtrc") {
        std::ofstream out(path);
        ASSERT_TRUE(out.is_open()) << "cannot write " << path;
        out << got;
        return;
    }

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open())
        << "missing reference " << path
        << " — generate the corpus with tools/regen_golden.sh";
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "stats drifted from the reference; if intended, regenerate "
        << "with tools/regen_golden.sh and review the diff";
}

std::string
traceCaseName(const testing::TestParamInfo<std::string> &info)
{
    return info.param == "example.dtrc" ? "golden_trace_replay_dtrc"
                                        : "golden_trace_replay_txt";
}

INSTANTIATE_TEST_SUITE_P(TraceCorpus, GoldenTraceReplay,
                         testing::Values(std::string("example.dtrc"),
                                         std::string("example.txt")),
                         traceCaseName);

/**
 * Sweep-row corpus: a small grid through exec::runSweepPoint() — every
 * synthetic pattern on open and closed pages and both models, a trace
 * point, 4-channel linear, random and trace points, and a warm-up
 * point run both cold and from a warm-up snapshot — compared as the
 * CSV rows sweep_cli writes. Rows are only a handful of rounded numbers per
 * run, so this pins how each point is assembled (stimulus, address
 * window, request split, seeds) rather than the controller itself.
 */
std::string
runSweepRows()
{
    std::vector<std::string> rows{exec::csvHeader()};
    auto runAll = [&](const exec::SweepSpec &spec) {
        std::string err;
        EXPECT_TRUE(exec::checkSpec(spec, &err)) << err;
        for (const exec::SweepPoint &pt : exec::expandGrid(spec))
            rows.push_back(exec::toCsv(exec::runSweepPoint(pt, spec)));
    };

    exec::SweepSpec single;
    single.patterns = {"linear", "random", "dram"};
    single.pages = {PagePolicy::Open, PagePolicy::Closed};
    single.readPcts = {70};
    single.models = {harness::CtrlModel::Event,
                     harness::CtrlModel::Cycle};
    single.requests = 1000;
    runAll(single);

    const std::string trace_path =
        std::string(TRACES_DIR) + "/example.dtrc";
    exec::SweepSpec trace;
    trace.patterns = {"trace"};
    trace.tracePath = trace_path;
    runAll(trace);

    exec::SweepSpec multi;
    multi.presets = {"ddr3_1600"};
    multi.patterns = {"linear", "random", "trace"};
    multi.tracePath = trace_path;
    multi.readPcts = {50};
    multi.channels = 4;
    multi.requests = 1600;
    runAll(multi);

    exec::SweepSpec warm;
    warm.readPcts = {80};
    warm.requests = 1000;
    warm.warmupRequests = 500;
    runAll(warm);
    const exec::SweepPoint pt = exec::expandGrid(warm).front();
    rows.push_back(exec::toCsv(exec::runMeasuredFromSnapshot(
        pt, warm, exec::captureWarmupSnapshot(pt, warm))));
    EXPECT_EQ(rows.back(), rows[rows.size() - 2])
        << "warm-start row differs from the cold warm-up row";

    // A JSON array of the CSV lines, so the reference reads like the
    // rest of the corpus.
    std::string out = "[\n";
    for (std::size_t i = 0; i < rows.size(); ++i)
        out += "  \"" + rows[i] +
               (i + 1 < rows.size() ? "\",\n" : "\"\n");
    return out + "]\n";
}

TEST(GoldenSweep, golden_sweep_rows)
{
    expectMatchesGolden("golden_sweep_rows", runSweepRows());
}

} // namespace
} // namespace dramctrl
