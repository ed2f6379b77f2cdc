/**
 * @file
 * Checkpoint/restore round-trip properties (`ctest -R ckpt_`).
 *
 * The contract under test (docs/CHECKPOINT.md): running 0 -> T_end in
 * one piece and running 0 -> T_ckpt, saving, restoring into a freshly
 * built system and continuing to T_end produce byte-identical stats
 * JSON and identical command logs — for every DRAM preset, every
 * traffic pattern, both controller models, fuzzer-drawn
 * configurations, and a crossbar split while a port is stalled on
 * credits. Damaged snapshots (bit flips, truncation, config
 * mismatch) must fail with a clear fatal() naming the problem, never
 * crash or restore silently. Warm-start sweep rows must equal the
 * cold-path rows.
 */

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "dram/cmd_log.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "exec/sweep.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "trafficgen/dram_gen.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "trafficgen/trace.hh"
#include "trafficgen/trace_file.hh"
#include "validate/config_fuzzer.hh"

namespace dramctrl {
namespace {

constexpr Tick kCkptAt = fromNs(800.0);
constexpr std::uint64_t kRequests = 300;
constexpr std::uint64_t kSeed = 7;

struct CkptCase
{
    std::string preset;
    std::string pattern; // linear | random | dram
    harness::CtrlModel model;
    unsigned readPct;
};

std::string
caseName(const testing::TestParamInfo<CkptCase> &info)
{
    return "ckpt_" + info.param.preset + "_" + info.param.pattern +
           "_" + harness::toString(info.param.model);
}

struct BuiltSystem
{
    std::unique_ptr<harness::SingleChannelSystem> tb;
    BaseGen *gen = nullptr;
};

BuiltSystem
buildSystem(const DRAMCtrlConfig &base_cfg, const std::string &pattern,
            harness::CtrlModel model, unsigned read_pct,
            std::uint64_t requests, std::uint64_t seed)
{
    DRAMCtrlConfig cfg = base_cfg;
    cfg.writeLowThreshold = 0.0; // drain fully so runs terminate
    cfg.check();

    BuiltSystem built;
    built.tb =
        std::make_unique<harness::SingleChannelSystem>(cfg, model);

    GenConfig gc;
    gc.windowSize =
        std::min<std::uint64_t>(cfg.org.channelCapacity, 1ULL << 22);
    gc.readPct = read_pct;
    gc.minITT = gc.maxITT = fromNs(6.0);
    gc.numRequests = requests;
    gc.seed = seed;

    if (pattern == "linear") {
        built.gen = &built.tb->addGen<LinearGen>(gc);
    } else if (pattern == "random") {
        built.gen = &built.tb->addGen<RandomGen>(gc);
    } else {
        DramGenConfig dgc;
        static_cast<GenConfig &>(dgc) = gc;
        dgc.org = cfg.org;
        dgc.mapping = cfg.addrMapping;
        dgc.strideBytes = 256;
        dgc.numBanksTarget = 4;
        built.gen = &built.tb->addGen<DramGen>(dgc);
    }
    return built;
}

std::string
statsJson(harness::SingleChannelSystem &tb)
{
    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    return os.str();
}

void
expectSameLog(const std::vector<CmdRecord> &got,
              const std::vector<CmdRecord> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].toString(), want[i].toString())
            << "command " << i << " differs";
    }
}

/**
 * Run the system @p build makes once uninterrupted, and once split at
 * kCkptAt through a checkpoint into a fresh system; expect identical
 * stats JSON and command logs. Returns the snapshot.
 */
std::string
expectSplitRunMatches(const std::function<BuiltSystem()> &build)
{
    // Reference: one uninterrupted run.
    BuiltSystem ref = build();
    CmdLogger refLog;
    ref.tb->ctrl().setCmdLogger(&refLog);
    ref.tb->runToCompletion([&] { return ref.gen->done(); });
    const std::string refStats = statsJson(*ref.tb);

    // Phase 1: run to the checkpoint tick and save.
    BuiltSystem pre = build();
    CmdLogger preLog;
    pre.tb->ctrl().setCmdLogger(&preLog);
    pre.tb->sim().run(kCkptAt);
    const std::string snapshot = ckpt::saveToString(pre.tb->sim());

    // Phase 2: fresh system, restore, continue to completion.
    BuiltSystem post = build();
    CmdLogger postLog;
    post.tb->ctrl().setCmdLogger(&postLog);
    ckpt::restoreFromString(post.tb->sim(), snapshot);
    EXPECT_EQ(post.tb->sim().curTick(), kCkptAt);
    post.tb->runToCompletion([&] { return post.gen->done(); });

    EXPECT_EQ(statsJson(*post.tb), refStats);

    std::vector<CmdRecord> joined = preLog.log();
    joined.insert(joined.end(), postLog.log().begin(),
                  postLog.log().end());
    expectSameLog(joined, refLog.log());
    return snapshot;
}

class CkptRoundTrip : public testing::TestWithParam<CkptCase>
{
};

TEST_P(CkptRoundTrip, SplitRunMatchesUninterrupted)
{
    const CkptCase &c = GetParam();
    const DRAMCtrlConfig cfg = presets::byName(c.preset);
    expectSplitRunMatches([&] {
        return buildSystem(cfg, c.pattern, c.model, c.readPct, kRequests,
                           kSeed);
    });
}

std::vector<CkptCase>
allCases()
{
    std::vector<CkptCase> cases;
    for (const std::string &preset : presets::names())
        for (const char *pattern : {"linear", "random", "dram"})
            cases.push_back(
                {preset, pattern, harness::CtrlModel::Event, 60});
    // The cycle comparator, one preset across every pattern.
    for (const char *pattern : {"linear", "random", "dram"})
        cases.push_back(
            {"ddr3_1333", pattern, harness::CtrlModel::Cycle, 60});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(AllPresets, CkptRoundTrip,
                         testing::ValuesIn(allCases()), caseName);

/** The integers of the JSON array recorded under @p key in @p json. */
std::vector<std::uint64_t>
jsonArray(const std::string &json, const std::string &key)
{
    std::vector<std::uint64_t> values;
    std::smatch m;
    if (!std::regex_search(json, m,
                           std::regex("\"" + key + "\": \\[([^\\]]*)\\]")))
        return values;
    std::istringstream is(m[1].str());
    std::string item;
    while (std::getline(is, item, ','))
        values.push_back(std::stoull(item));
    return values;
}

/**
 * A split taken while a bank sits at its row-access cap with hits on
 * its open row still queued resumes exactly: the scheduler's view of
 * which hits are starved must come back from the restored bank state.
 */
TEST(CkptRoundTripAtCap, ckpt_split_at_row_access_cap_matches)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.maxAccessesPerRow = 4;
    cfg.writeLowThreshold = 0.0;
    auto build = [&] {
        BuiltSystem b;
        b.tb = std::make_unique<harness::SingleChannelSystem>(
            cfg, harness::CtrlModel::Event);
        GenConfig gc;
        gc.windowSize = 1ULL << 22;
        gc.readPct = 100;
        gc.minITT = gc.maxITT = fromNs(1.0);
        gc.numRequests = kRequests;
        gc.seed = kSeed;
        b.gen = &b.tb->addGen<LinearGen>(gc);
        return b;
    };
    const std::string snapshot = expectSplitRunMatches(build);

    std::istringstream is(snapshot);
    std::ostringstream os;
    ckpt::dumpJson(is, os);
    const std::string json = os.str();
    const auto open_row = jsonArray(json, "bank.openRow");
    const auto accesses = jsonArray(json, "bank.rowAccesses");
    ASSERT_EQ(open_row.size(), accesses.size());
    ASSERT_FALSE(open_row.empty());
    // Read-queue entries: (entryTime, readyTime, isRead, requestorId,
    // rank, bank, row, ...); look for a hit on a capped bank.
    unsigned capped_hits = 0;
    for (std::size_t i = 0;; ++i) {
        const auto e = jsonArray(json, "rq." + std::to_string(i));
        if (e.empty())
            break;
        ASSERT_GE(e.size(), 7u);
        const std::size_t flat = e[4] * cfg.org.banksPerRank + e[5];
        ASSERT_LT(flat, open_row.size());
        if (open_row[flat] == e[6] &&
            accesses[flat] >= cfg.maxAccessesPerRow)
            ++capped_hits;
    }
    EXPECT_GT(capped_hits, 0u)
        << "the split must fall while a capped bank has queued hits";
}

/** Fuzzer-drawn configurations must round-trip just like presets. */
TEST(CkptFuzz, ckpt_fuzzed_configs_round_trip)
{
    validate::FuzzerOptions fopts;
    fopts.numRequests = 120;
    for (std::uint64_t i = 0; i < 6; ++i) {
        Random rng(0xc0ffee + i);
        validate::FuzzCase fc = validate::sampleCase(rng, fopts);
        fc.cfg.writeLowThreshold = 0.0;
        const std::uint64_t seed = rng.next();

        auto build = [&] {
            BuiltSystem b;
            b.tb = std::make_unique<harness::SingleChannelSystem>(
                fc.cfg, harness::CtrlModel::Event);
            GenConfig gc;
            gc.windowSize = fc.stream.windowSize;
            gc.readPct = fc.stream.readPct;
            gc.minITT = fc.stream.minITT;
            gc.maxITT = fc.stream.maxITT;
            gc.numRequests = fopts.numRequests;
            gc.seed = seed;
            b.gen = &b.tb->addGen<RandomGen>(gc);
            return b;
        };

        BuiltSystem ref = build();
        ref.tb->runToCompletion([&] { return ref.gen->done(); });
        const std::string refStats = statsJson(*ref.tb);

        BuiltSystem pre = build();
        pre.tb->sim().run(fromNs(500.0));
        const std::string snapshot = ckpt::saveToString(pre.tb->sim());

        BuiltSystem post = build();
        ckpt::restoreFromString(post.tb->sim(), snapshot);
        post.tb->runToCompletion([&] { return post.gen->done(); });

        EXPECT_EQ(statsJson(*post.tb), refStats)
            << "fuzz case " << i << " (" << validate::summarize(fc)
            << ")";
    }
}

/**
 * Plugin chains must round-trip: ECC decode classes, PRAC counter
 * tables and pending alerts, and the per-bank refresh rotation are
 * part of the controller section (under "plugin.<kind>.*" keys), so
 * a split run continues with identical plugin behaviour — same
 * mitigation refreshes, same rotation slots, same error counters.
 */
TEST(CkptPlugin, ckpt_plugin_chains_round_trip)
{
    const char *chains[] = {"ecc", "prac", "refmgr", "refmgr-pb",
                            "ecc,prac,refmgr"};
    for (const char *chain : chains) {
        DRAMCtrlConfig cfg = presets::byName("ddr3_1333");
        std::string err;
        ASSERT_TRUE(plugin::parsePluginList(chain, cfg, err)) << err;
        for (PluginSpec &p : cfg.plugins) {
            if (p.kind == "ecc") {
                p.eccBer = 1e-3;
                p.eccSeed = 21;
            } else if (p.kind == "prac") {
                // Low threshold: alerts and mitigations straddle the
                // checkpoint, exercising the counter-table state.
                p.pracThreshold = 4;
            } else if (p.kind == "refmgr-pb") {
                // Short tREFI: the rotation advances before kCkptAt.
                cfg.timing.tREFI = fromUs(1.0);
            }
        }

        SCOPED_TRACE(std::string("plugin chain '") + chain + "'");
        expectSplitRunMatches([&] {
            return buildSystem(cfg, "random", harness::CtrlModel::Event,
                               60, kRequests, kSeed);
        });
    }
}

/**
 * Cycle model with four-burst requests offered faster than they drain:
 * the snapshot lands while transactions are partly decomposed into the
 * command queues, so the restored controller must re-derive the
 * coordinates of each one's next burst from its address and progress.
 */
TEST(CkptCycle, ckpt_cycle_partly_decomposed_transactions_resume)
{
    DRAMCtrlConfig cfg = presets::byName("ddr3_1333");
    cfg.writeLowThreshold = 0.0;
    cfg.check();
    auto build = [&] {
        BuiltSystem built;
        built.tb = std::make_unique<harness::SingleChannelSystem>(
            cfg, harness::CtrlModel::Cycle);
        GenConfig gc;
        gc.windowSize = 1ULL << 22;
        gc.blockSize = 4 * static_cast<unsigned>(cfg.org.burstSize());
        gc.readPct = 60;
        gc.minITT = gc.maxITT = fromNs(3.0);
        gc.numRequests = kRequests;
        gc.seed = kSeed;
        built.gen = &built.tb->addGen<RandomGen>(gc);
        return built;
    };
    const std::string snapshot = expectSplitRunMatches(build);

    // The snapshot must hold a transaction with some, not all, of its
    // bursts queued: fields are isRead, entryTime, localAddr, size,
    // burstsTotal, burstsQueued, ...
    std::istringstream is(snapshot);
    std::ostringstream json;
    ckpt::dumpJson(is, json);
    const std::string text = json.str();
    const std::regex fields(
        "\"trans[0-9]+\\.f\": \\[[0-9]+,[0-9]+,[0-9]+,[0-9]+,"
        "([0-9]+),([0-9]+),");
    unsigned partial = 0;
    for (auto it = std::sregex_iterator(text.begin(), text.end(), fields);
         it != std::sregex_iterator(); ++it) {
        const unsigned long total = std::stoul((*it)[1]);
        const unsigned long queued = std::stoul((*it)[2]);
        if (queued > 0 && queued < total)
            ++partial;
    }
    EXPECT_GT(partial, 0u) << "no partly decomposed transaction at the "
                              "checkpoint; the case lost its purpose";
}

/**
 * One channel behind the crossbar (one shard, so no sharded engine)
 * and three generators that inject faster than the front ports'
 * request lanes drain: the fronts keep running out of credits.
 */
std::unique_ptr<harness::MultiChannelSystem>
buildCreditBoundSystem()
{
    harness::MultiChannelConfig mcfg;
    mcfg.channels = 1;
    mcfg.ctrl = presets::byName("ddr3_1600");
    mcfg.ctrl.writeLowThreshold = 0.0;
    mcfg.ctrl.check();
    auto mc = std::make_unique<harness::MultiChannelSystem>(mcfg);

    GenConfig gc;
    gc.windowSize = 1ULL << 20;
    gc.readPct = 60;
    gc.minITT = gc.maxITT = fromNs(2.0);
    gc.numRequests = kRequests;
    for (unsigned i = 0; i < 3; ++i) {
        GenConfig g = gc;
        g.startAddr = i * gc.windowSize;
        g.seed = kSeed + i;
        mc->addGen<RandomGen>(g);
    }
    return mc;
}

/**
 * True when some front port of @p snapshot is stalled on a credit
 * pool that still holds returns in flight.
 */
bool
hasStalledPoolWithReturns(const std::string &snapshot)
{
    std::istringstream is(snapshot);
    std::ostringstream os;
    ckpt::dumpJson(is, os);
    const std::string json = os.str();
    const std::regex section(
        R"(\{"name": "mem_xbar\.front\d+"[^}]*\})");
    for (auto it = std::sregex_iterator(json.begin(), json.end(),
                                        section);
         it != std::sregex_iterator(); ++it) {
        const std::string body = it->str();
        if (body.find(R"("req_credits.stalled": true)") !=
                std::string::npos &&
            std::regex_search(body,
                              std::regex(R"("req_credits\.due": \[\d)")))
            return true;
    }
    return false;
}

TEST(CkptMultiChannel, ckpt_crossbar_split_while_stalled_on_credits)
{
    auto ref = buildCreditBoundSystem();
    std::vector<CmdLogger> &refLog = ref->attachCmdLoggers();
    ref->runToCompletion();
    std::ostringstream refStats;
    ref->sim().dumpStatsJson(refStats);

    auto pre = buildCreditBoundSystem();
    std::vector<CmdLogger> &preLog = pre->attachCmdLoggers();
    pre->sim().run(kCkptAt);
    const std::string snapshot = ckpt::saveToString(pre->sim());
    EXPECT_TRUE(hasStalledPoolWithReturns(snapshot));

    auto post = buildCreditBoundSystem();
    std::vector<CmdLogger> &postLog = post->attachCmdLoggers();
    ckpt::restoreFromString(post->sim(), snapshot);
    EXPECT_EQ(post->sim().curTick(), kCkptAt);
    post->runToCompletion();
    std::ostringstream postStats;
    post->sim().dumpStatsJson(postStats);

    EXPECT_EQ(postStats.str(), refStats.str());
    std::vector<CmdRecord> joined = preLog[0].log();
    joined.insert(joined.end(), postLog[0].log().begin(),
                  postLog[0].log().end());
    expectSameLog(joined, refLog[0].log());
}

/**
 * System preset @p preset, sharded one channel per shard, with one
 * random generator per channel: 12800 requests in all, 6 ns apart.
 */
std::unique_ptr<harness::MultiChannelSystem>
buildPresetSystem(const std::string &preset, unsigned threads)
{
    harness::MultiChannelConfig mcfg =
        harness::systemPresetByName(preset);
    mcfg.ctrl.writeLowThreshold = 0.0;
    mcfg.ctrl.check();
    mcfg.simThreads = threads;
    auto mc = std::make_unique<harness::MultiChannelSystem>(mcfg);
    harness::Stimulus s;
    s.readPct = 50;
    s.requests = 12800;
    s.seed = kSeed;
    mc->addStimulus(s);
    return mc;
}

class CkptSystem : public testing::TestWithParam<std::string>
{
};

TEST_P(CkptSystem, SplitRunMatchesUninterrupted)
{
    const std::string &preset = GetParam();
    auto ref = buildPresetSystem(preset, 1);
    std::vector<CmdLogger> &refLog = ref->attachCmdLoggers();
    const Tick end = ref->runToCompletion();
    std::ostringstream refStats;
    ref->sim().dumpStatsJson(refStats);

    // Off the 1 us poll grid and on it, each before the first poll
    // that finds the run drained; the second split runs both halves
    // at four sim-threads.
    const Tick splits[] = {fromNs(333.3), fromNs(777.7), fromUs(1.0)};
    ASSERT_GT(end, fromUs(1.0)) << "run drained before the last split";
    for (Tick at : splits) {
        const unsigned threads = at == splits[1] ? 4 : 1;
        auto pre = buildPresetSystem(preset, threads);
        std::vector<CmdLogger> &preLog = pre->attachCmdLoggers();
        pre->sim().run(at);
        const std::string snapshot = ckpt::saveToString(pre->sim());

        auto post = buildPresetSystem(preset, threads);
        std::vector<CmdLogger> &postLog = post->attachCmdLoggers();
        ckpt::restoreFromString(post->sim(), snapshot);
        EXPECT_EQ(post->runToCompletion(), end);
        std::ostringstream postStats;
        post->sim().dumpStatsJson(postStats);
        EXPECT_EQ(postStats.str(), refStats.str())
            << "split at " << at << " ticks";
        for (unsigned ch = 0; ch < refLog.size(); ++ch) {
            std::vector<CmdRecord> joined = preLog[ch].log();
            joined.insert(joined.end(), postLog[ch].log().begin(),
                          postLog[ch].log().end());
            expectSameLog(joined, refLog[ch].log());
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SystemPresets, CkptSystem,
    testing::ValuesIn(harness::systemPresetNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return "ckpt_" + info.param;
    });

/**
 * Restoring a plugin-bearing snapshot into a system built without the
 * chain (or vice versa) must fail with a clear fatal(), never restore
 * silently with dangling plugin state.
 */
TEST(CkptPlugin, ckpt_plugin_chain_mismatch_is_fatal)
{
    BuiltSystem pre = buildSystem(presets::byName("ddr3_1333"),
                                  "random", harness::CtrlModel::Event,
                                  60, kRequests, kSeed);
    pre.tb->sim().run(kCkptAt);
    const std::string snapshot = ckpt::saveToString(pre.tb->sim());

    DRAMCtrlConfig withPlugins = presets::byName("ddr3_1333");
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("prac", withPlugins, err));
    BuiltSystem post = buildSystem(withPlugins, "random",
                                   harness::CtrlModel::Event, 60,
                                   kRequests, kSeed);
    setThrowOnError(true);
    EXPECT_THROW(ckpt::restoreFromString(post.tb->sim(), snapshot),
                 std::runtime_error);
    setThrowOnError(false);
}

std::string
makeSnapshot()
{
    BuiltSystem pre = buildSystem(presets::byName("ddr3_1333"),
                                  "random", harness::CtrlModel::Event,
                                  60, kRequests, kSeed);
    pre.tb->sim().run(kCkptAt);
    return ckpt::saveToString(pre.tb->sim());
}

/** Restore @p snapshot into a fresh default system, expecting fatal(). */
std::string
restoreExpectingFatal(const std::string &snapshot,
                      const std::string &preset = "ddr3_1333")
{
    BuiltSystem post = buildSystem(presets::byName(preset), "random",
                                   harness::CtrlModel::Event, 60,
                                   kRequests, kSeed);
    setThrowOnError(true);
    std::string message;
    try {
        ckpt::restoreFromString(post.tb->sim(), snapshot);
    } catch (const std::runtime_error &e) {
        message = e.what();
    }
    setThrowOnError(false);
    EXPECT_FALSE(message.empty())
        << "damaged snapshot restored without an error";
    return message;
}

TEST(CkptDamage, ckpt_corrupted_snapshot_names_the_section)
{
    const std::string good = makeSnapshot();
    // Flip one byte in the middle — lands in some section's payload,
    // which the per-section CRC must catch before anything restores.
    std::string bad = good;
    bad[bad.size() / 2] = static_cast<char>(bad[bad.size() / 2] ^ 0xff);
    std::string msg = restoreExpectingFatal(bad);
    EXPECT_NE(msg.find("checkpoint"), std::string::npos) << msg;
    EXPECT_NE(msg.find("'"), std::string::npos)
        << "message should name the section: " << msg;
}

TEST(CkptDamage, ckpt_truncated_snapshot_fails_cleanly)
{
    const std::string good = makeSnapshot();
    std::string msg =
        restoreExpectingFatal(good.substr(0, good.size() / 3));
    EXPECT_NE(msg.find("truncated"), std::string::npos) << msg;
}

TEST(CkptDamage, ckpt_bad_magic_is_rejected)
{
    std::string msg = restoreExpectingFatal("not a checkpoint at all");
    EXPECT_NE(msg.find("checkpoint"), std::string::npos) << msg;
}

TEST(CkptDamage, ckpt_config_mismatch_is_rejected)
{
    // A ddr3_1333 snapshot must not restore into a ddr3_1600 system.
    const std::string good = makeSnapshot();
    std::string msg = restoreExpectingFatal(good, "ddr3_1600");
    EXPECT_NE(msg.find("mismatch"), std::string::npos) << msg;
}

/** Every byte of the snapshot matters: flips anywhere never crash. */
TEST(CkptDamage, ckpt_bit_flip_sweep_never_restores_silently)
{
    const std::string good = makeSnapshot();
    Random rng(42);
    for (int i = 0; i < 24; ++i) {
        const std::size_t pos = rng.next() % good.size();
        std::string bad = good;
        bad[pos] = static_cast<char>(bad[pos] ^ (1u << (i % 8)));
        if (bad == good)
            continue;
        BuiltSystem post = buildSystem(
            presets::byName("ddr3_1333"), "random",
            harness::CtrlModel::Event, 60, kRequests, kSeed);
        setThrowOnError(true);
        try {
            ckpt::restoreFromString(post.tb->sim(), bad);
            // A flip in dead padding may legitimately restore; if it
            // does, the simulation must still be able to continue.
            post.tb->runToCompletion([&] { return post.gen->done(); });
        } catch (const std::runtime_error &) {
            // clean fatal: expected for most positions
        }
        setThrowOnError(false);
    }
}

TEST(CkptDamage, ckpt_other_format_version_is_refused)
{
    // The version word follows the 4-byte magic, little-endian.
    const std::uint32_t older = ckpt::kFormatVersion - 1;
    std::string old = makeSnapshot();
    old[4] = static_cast<char>(older);
    std::string msg = restoreExpectingFatal(old);
    EXPECT_NE(msg.find("version " + std::to_string(older)),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("version " + std::to_string(ckpt::kFormatVersion)),
              std::string::npos)
        << msg;
}

/**
 * @p snapshot with the u64-vector record @p key of section @p section
 * replaced by @p value, the section's length and CRC rewritten to
 * match: a well-formed stream holding a record of the wrong shape.
 */
std::string
replaceRecord(const std::string &snapshot, const std::string &section,
              const std::string &key,
              const std::vector<std::uint64_t> &value)
{
    auto read = [&](std::size_t pos, int bytes) {
        std::uint64_t v = 0;
        for (int i = 0; i < bytes; ++i)
            v |= std::uint64_t(static_cast<unsigned char>(
                     snapshot[pos + i]))
                 << (8 * i);
        return v;
    };
    auto append = [](std::string &out, std::uint64_t v, int bytes) {
        for (int i = 0; i < bytes; ++i)
            out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    };

    std::size_t pos = 8; // file magic and version
    while (pos < snapshot.size()) {
        const std::size_t name_len = read(pos + 4, 2);
        const std::string name = snapshot.substr(pos + 6, name_len);
        const std::size_t len_at = pos + 6 + name_len + 4;
        const std::size_t payload_at = len_at + 12;
        const std::size_t payload_len = read(len_at, 8);
        if (name != section) {
            pos = payload_at + payload_len;
            continue;
        }
        // Walk the records: type, key, value sized by type.
        std::string payload;
        std::size_t r = payload_at;
        while (r < payload_at + payload_len) {
            const unsigned type = static_cast<unsigned char>(snapshot[r]);
            const std::size_t key_len = read(r + 1, 2);
            const std::string rkey = snapshot.substr(r + 3, key_len);
            std::size_t v = r + 3 + key_len;
            std::size_t size = type <= 3 ? 8
                               : type == 4 ? 1
                               : type <= 6 ? 4 + read(v, 4)
                                           : 4 + 8 * read(v, 4);
            if (rkey == key) {
                payload += snapshot.substr(r, v - r);
                append(payload, value.size(), 4);
                for (std::uint64_t x : value)
                    append(payload, x, 8);
            } else {
                payload += snapshot.substr(r, v + size - r);
            }
            r = v + size;
        }
        std::string out = snapshot.substr(0, len_at);
        append(out, payload.size(), 8);
        append(out, ckpt::crc32(payload.data(), payload.size()), 4);
        return out + payload +
               snapshot.substr(payload_at + payload_len);
    }
    ADD_FAILURE() << "no section '" << section << "'";
    return snapshot;
}

TEST(CkptDamage, ckpt_wrong_length_credit_pool_record_names_its_key)
{
    auto pre = buildCreditBoundSystem();
    pre->sim().run(kCkptAt);
    const std::string bad =
        replaceRecord(ckpt::saveToString(pre->sim()), "mem_xbar.front0",
                      "req_credits.home", {1, 1});

    auto post = buildCreditBoundSystem();
    setThrowOnError(true);
    std::string message;
    try {
        ckpt::restoreFromString(post->sim(), bad);
    } catch (const std::runtime_error &e) {
        message = e.what();
    }
    setThrowOnError(false);
    EXPECT_EQ(message.rfind("fatal: ", 0), 0u) << message;
    EXPECT_NE(message.find("'mem_xbar.front0'"), std::string::npos)
        << message;
    EXPECT_NE(message.find("'req_credits.home'"), std::string::npos)
        << message;
}

/**
 * Restore @p build's system from a snapshot taken at @p at and save
 * it again at once: the bytes must equal the snapshot's. A field that
 * is saved but not restored, or restored into the wrong place, shows
 * as a difference.
 */
template <typename Build>
void
expectResaveIdentical(Build build, Tick at)
{
    auto pre = build();
    pre->sim().run(at);
    const std::string saved = ckpt::saveToString(pre->sim());

    auto post = build();
    ckpt::restoreFromString(post->sim(), saved);
    EXPECT_TRUE(ckpt::saveToString(post->sim()) == saved)
        << "re-saved checkpoint differs from the restored one";
}

/** The single-channel system buildSystem() makes, on its own. */
std::unique_ptr<harness::SingleChannelSystem>
singleChannel(const DRAMCtrlConfig &cfg, const std::string &pattern,
              harness::CtrlModel model)
{
    return buildSystem(cfg, pattern, model, 60, kRequests, kSeed).tb;
}

TEST(CkptResave, ckpt_resave_event_and_cycle_models)
{
    const DRAMCtrlConfig cfg = presets::byName("ddr3_1333");
    for (harness::CtrlModel model :
         {harness::CtrlModel::Event, harness::CtrlModel::Cycle}) {
        SCOPED_TRACE(harness::toString(model));
        expectResaveIdentical(
            [&] { return singleChannel(cfg, "random", model); }, kCkptAt);
    }
}

TEST(CkptResave, ckpt_resave_plugin_chain)
{
    DRAMCtrlConfig cfg = presets::byName("ddr3_1333");
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("ecc,prac,refmgr-pb", cfg, err))
        << err;
    for (PluginSpec &p : cfg.plugins) {
        p.eccBer = 1e-3;
        p.pracThreshold = 4;
    }
    cfg.timing.tREFI = fromUs(1.0);
    expectResaveIdentical(
        [&] {
            return singleChannel(cfg, "random", harness::CtrlModel::Event);
        },
        kCkptAt);
}

TEST(CkptResave, ckpt_resave_dram_pattern)
{
    const DRAMCtrlConfig cfg = presets::byName("ddr4_2400");
    expectResaveIdentical(
        [&] { return singleChannel(cfg, "dram", harness::CtrlModel::Event); },
        kCkptAt);
}

TEST(CkptResave, ckpt_resave_trace_player)
{
    DRAMCtrlConfig cfg = presets::byName("ddr3_1333");
    cfg.writeLowThreshold = 0.0;
    cfg.check();
    expectResaveIdentical(
        [&] {
            auto tb = std::make_unique<harness::SingleChannelSystem>(
                cfg, harness::CtrlModel::Event);
            tb->addGen<TracePlayer>(makeTracePlayerConfig(
                std::string(TRACES_DIR) + "/example.dtrc"));
            return tb;
        },
        fromNs(500.0));
}

TEST(CkptResave, ckpt_resave_sharded_hmc_stack_16)
{
    expectResaveIdentical(
        [] { return buildPresetSystem("hmc_stack_16", 4); }, fromNs(777.7));
}

TEST(CkptWarmStart, ckpt_warm_rows_equal_cold_rows)
{
    exec::SweepSpec spec;
    spec.presets = {"ddr3_1333", "lpddr3_1600"};
    spec.patterns = {"random"};
    spec.numSeeds = 2;
    spec.requests = 200;
    spec.warmupRequests = 100;

    std::vector<exec::SweepPoint> grid = exec::expandGrid(spec);
    ASSERT_EQ(grid.size(), 4u);

    // One snapshot per config group, shared by the group's seeds.
    std::vector<std::string> snapshots(2);
    for (std::size_t g = 0; g < 2; ++g)
        snapshots[g] =
            exec::captureWarmupSnapshot(grid[g * 2], spec);

    for (const exec::SweepPoint &pt : grid) {
        exec::SweepRow cold = exec::runSweepPoint(pt, spec);
        exec::SweepRow warm = exec::runMeasuredFromSnapshot(
            pt, spec, snapshots[exec::configGroupOf(pt, spec)]);
        EXPECT_EQ(exec::toCsv(warm), exec::toCsv(cold))
            << "point " << pt.index;
    }
}

TEST(CkptJson, ckpt_json_dump_lists_every_section)
{
    const std::string snapshot = makeSnapshot();
    std::istringstream is(snapshot);
    std::ostringstream os;
    ckpt::dumpJson(is, os);
    const std::string json = os.str();
    for (const char *section : {"\"sim\"", "\"stats\"", "\"mem_ctrl\"",
                                "\"gen\"", "\"format_version\""})
        EXPECT_NE(json.find(section), std::string::npos)
            << "missing " << section;
}

} // namespace
} // namespace dramctrl
