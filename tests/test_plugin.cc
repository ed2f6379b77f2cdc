/**
 * @file
 * Controller plugin chain tests (`ctest -R plugin_` and the
 * `validate_plugin_conservation` property run).
 *
 * Covers, per docs/PLUGINS.md:
 *
 *  - chain construction: parse, registration order, typed accessors,
 *    duplicate-kind and two-refresh-manager rejection, the cycle
 *    model refusing event-only plugins;
 *  - EccPlugin in isolation: determinism, the seeded error rate
 *    against its binomial expectation, and the conservation law
 *    wordsWithErrors == corrected + detected + escaped;
 *  - PracPlugin in isolation: threshold alerts, mitigation and
 *    refresh clearing semantics;
 *  - the ProtocolChecker's plugin rules ("prac", "tRFM", "tRFCpb",
 *    REFpb legality, the per-bank tREFI deadline) on hand-built
 *    command streams;
 *  - the event model end to end: a full chain audits clean, each
 *    test fault hook trips exactly its rule, per-bank and all-bank
 *    refresh managers answer refresh-insensitive traffic
 *    identically;
 *  - ECC conservation across fuzzer-drawn configurations through the
 *    differential runner.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cyclesim/cycle_ctrl.hh"
#include "dram/cmd_log.hh"
#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "dram/protocol_checker.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "stats/stats.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "validate/config_fuzzer.hh"
#include "validate/diff_runner.hh"

#include "test_util.hh"

namespace dramctrl {
namespace {

using plugin::BurstInfo;
using plugin::EccPlugin;
using plugin::PluginChain;
using plugin::PracPlugin;
using plugin::RefreshManager;

DRAMOrg
testOrg()
{
    return presets::ddr3_1333().org;
}

// ------------------------------------------------- parse and chain

TEST(PluginParse, ValidListAppendsInOrder)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("ecc,prac,refmgr", cfg, err))
        << err;
    ASSERT_EQ(cfg.plugins.size(), 3u);
    EXPECT_EQ(cfg.plugins[0].kind, "ecc");
    EXPECT_EQ(cfg.plugins[1].kind, "prac");
    EXPECT_EQ(cfg.plugins[2].kind, "refmgr");
    EXPECT_TRUE(cfg.hasPlugin("prac"));
    EXPECT_EQ(cfg.findPlugin("refmgr-pb"), nullptr);
    cfg.check(); // the default specs must be valid
}

TEST(PluginParse, UnknownKindRejected)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    std::string err;
    EXPECT_FALSE(plugin::parsePluginList("ecc,bogus", cfg, err));
    EXPECT_NE(err.find("bogus"), std::string::npos);
}

TEST(PluginChainTest, BuildMatchesConfigOrder)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("prac,ecc,refmgr-pb", cfg, err));

    stats::Group root("ctrl");
    PluginChain chain = plugin::buildChain(cfg, root, "ctrl");
    ASSERT_EQ(chain.size(), 3u);
    EXPECT_STREQ(chain.plugins()[0]->kind(), "prac");
    EXPECT_STREQ(chain.plugins()[1]->kind(), "ecc");
    EXPECT_STREQ(chain.plugins()[2]->kind(), "refmgr-pb");
    EXPECT_NE(chain.ecc(), nullptr);
    EXPECT_NE(chain.prac(), nullptr);
    ASSERT_NE(chain.refreshManager(), nullptr);
    EXPECT_TRUE(chain.refreshManager()->perBank());
}

TEST(PluginChainTest, DuplicateKindIsFatal)
{
    PluginSpec spec;
    spec.kind = "ecc";
    stats::Group root("ctrl");
    stats::Group other("ctrl2");

    PluginChain chain;
    chain.add(std::make_unique<EccPlugin>(spec, testOrg(), root));
    setThrowOnError(true);
    EXPECT_THROW(
        chain.add(std::make_unique<EccPlugin>(spec, testOrg(), other)),
        std::runtime_error);
    setThrowOnError(false);

    // The config validator rejects the same chain up front.
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.plugins.push_back(spec);
    cfg.plugins.push_back(spec);
    setThrowOnError(true);
    EXPECT_THROW(cfg.check(), std::runtime_error);
    setThrowOnError(false);
}

TEST(PluginChainTest, TwoRefreshManagersAreFatal)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("refmgr,refmgr-pb", cfg, err));
    setThrowOnError(true);
    EXPECT_THROW(cfg.check(), std::runtime_error);
    setThrowOnError(false);
}

/**
 * The refmgr-pb row of CycleDRAMCtrl::unsupportedFeature(): the cycle
 * comparator refuses the plugin by name, the event model runs it.
 */
TEST(PluginChainTest, PerBankRefreshRejectedOnCycleModel)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("refmgr-pb", cfg, err));
    const AddrRange range(0, cfg.org.channelCapacity);
    setThrowOnError(true);
    std::string what;
    try {
        Simulator sim;
        cyclesim::CycleDRAMCtrl ctrl(sim, "cycle_ctrl", cfg, range);
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    EXPECT_NE(what.find("refmgr-pb"), std::string::npos) << what;
    // The event model accepts the same chain.
    EXPECT_NO_THROW({
        Simulator sim;
        DRAMCtrl ctrl(sim, "ctrl", cfg, range);
    });
    setThrowOnError(false);
}

// ------------------------------------------------------- ECC plugin

/** Feed @p bursts read bursts at spread-out addresses. */
void
feedReads(EccPlugin &ecc, unsigned bursts)
{
    for (unsigned i = 0; i < bursts; ++i) {
        BurstInfo b;
        b.isRead = true;
        b.rank = 0;
        b.bank = i % 8;
        b.row = i / 8;
        b.col = i % 16;
        b.doneTick = fromNs(10.0) * (i + 1);
        ecc.onBurstComplete(b);
    }
}

TEST(EccUnit, DeterministicAcrossInstances)
{
    PluginSpec spec;
    spec.kind = "ecc";
    spec.eccBer = 1e-3;
    spec.eccSeed = 42;

    stats::Group rootA("a"), rootB("b");
    EccPlugin a(spec, testOrg(), rootA);
    EccPlugin b(spec, testOrg(), rootB);
    feedReads(a, 1000);
    feedReads(b, 1000);

    EXPECT_GT(a.wordsWithErrors(), 0u);
    EXPECT_EQ(a.wordsProcessed(), b.wordsProcessed());
    EXPECT_EQ(a.wordsWithErrors(), b.wordsWithErrors());
    EXPECT_EQ(a.bitErrorsInjected(), b.bitErrorsInjected());
    EXPECT_EQ(a.correctedWords(), b.correctedWords());
    EXPECT_EQ(a.detectedWords(), b.detectedWords());
    EXPECT_EQ(a.escapedWords(), b.escapedWords());

    // A different seed draws a different error pattern.
    PluginSpec reseeded = spec;
    reseeded.eccSeed = 43;
    stats::Group rootC("c");
    EccPlugin c(reseeded, testOrg(), rootC);
    feedReads(c, 1000);
    EXPECT_NE(a.bitErrorsInjected(), c.bitErrorsInjected());
}

TEST(EccUnit, ErrorRateMatchesBinomialExpectation)
{
    PluginSpec spec;
    spec.kind = "ecc";
    spec.eccBer = 1e-3;
    spec.eccSeed = 7;

    stats::Group root("ctrl");
    EccPlugin ecc(spec, testOrg(), root);
    ASSERT_EQ(ecc.codewordBits(), 72u); // SECDED 64+8
    const unsigned bursts = 4000;
    feedReads(ecc, bursts);

    const std::uint64_t words =
        std::uint64_t(bursts) * ecc.wordsPerBurst();
    ASSERT_EQ(ecc.wordsProcessed(), words);

    // P(word has >= 1 error) = 1 - (1 - ber)^codewordBits. With 32k
    // words the relative sampling error is ~2%, so a 15% band is
    // dozens of standard deviations wide.
    const double q = 1.0 - std::pow(1.0 - spec.eccBer, 72.0);
    const double observed =
        static_cast<double>(ecc.wordsWithErrors()) /
        static_cast<double>(words);
    EXPECT_NEAR(observed, q, 0.15 * q);

    // Mean injected errors per word: n * p.
    const double rate =
        static_cast<double>(ecc.bitErrorsInjected()) /
        static_cast<double>(words);
    EXPECT_NEAR(rate, 72.0 * spec.eccBer, 0.15 * 72.0 * spec.eccBer);
}

TEST(EccUnit, ConservationAndWriteAccounting)
{
    PluginSpec spec;
    spec.kind = "ecc";
    spec.eccBer = 5e-3; // high enough that every class is populated
    spec.eccCorrectBits = 1;
    spec.eccDetectBits = 2;
    spec.eccSeed = 11;

    stats::Group root("ctrl");
    EccPlugin ecc(spec, testOrg(), root);
    feedReads(ecc, 3000);

    // Writes only encode; they must not move the decode counters.
    const std::uint64_t processed = ecc.wordsProcessed();
    BurstInfo wr;
    wr.isRead = false;
    for (unsigned i = 0; i < 50; ++i)
        ecc.onBurstComplete(wr);
    EXPECT_EQ(ecc.wordsProcessed(), processed);

    EXPECT_GT(ecc.correctedWords(), 0u);
    EXPECT_GT(ecc.detectedWords(), 0u);
    EXPECT_EQ(ecc.wordsWithErrors(),
              ecc.correctedWords() + ecc.detectedWords() +
                  ecc.escapedWords());
    EXPECT_LE(ecc.wordsWithErrors(), ecc.wordsProcessed());
}

// ------------------------------------------------------ PRAC plugin

CmdRecord
cmd(Tick tick, DRAMCmd c, unsigned rank, unsigned bank,
    std::uint64_t row = 0)
{
    return CmdRecord{tick, c, rank, bank, row};
}

TEST(PracUnit, ThresholdRaisesAlertAndMitigationClears)
{
    PluginSpec spec;
    spec.kind = "prac";
    spec.pracThreshold = 4;

    stats::Group root("ctrl");
    PracPlugin prac(spec, testOrg(), root);

    for (unsigned i = 0; i < 3; ++i)
        prac.onCommand(cmd(fromNs(50.0) * i, DRAMCmd::Act, 0, 0, 5));
    EXPECT_FALSE(prac.mitigationPending(0));
    EXPECT_EQ(prac.rowCount(0, 5), 3u);
    EXPECT_EQ(prac.alertsRaised(), 0u);

    prac.onCommand(cmd(fromNs(150.0), DRAMCmd::Act, 0, 0, 5));
    EXPECT_TRUE(prac.mitigationPending(0));
    EXPECT_EQ(prac.alertsRaised(), 1u);
    EXPECT_EQ(prac.rowCount(0, 5), 4u);

    // Other banks are unaffected.
    EXPECT_FALSE(prac.mitigationPending(1));

    // The mitigation refresh clears the bank's counters and alert.
    prac.onCommand(cmd(fromNs(200.0), DRAMCmd::RefM, 0, 0));
    EXPECT_FALSE(prac.mitigationPending(0));
    EXPECT_EQ(prac.rowCount(0, 5), 0u);
    EXPECT_EQ(prac.mitigations(), 1u);
}

TEST(PracUnit, AllBankRefreshClearsWholeRank)
{
    PluginSpec spec;
    spec.kind = "prac";
    spec.pracThreshold = 2;

    stats::Group root("ctrl");
    PracPlugin prac(spec, testOrg(), root);

    prac.onCommand(cmd(0, DRAMCmd::Act, 0, 0, 9));
    prac.onCommand(cmd(fromNs(50.0), DRAMCmd::Act, 0, 0, 9));
    prac.onCommand(cmd(fromNs(60.0), DRAMCmd::Act, 0, 3, 2));
    EXPECT_TRUE(prac.mitigationPending(0));
    EXPECT_EQ(prac.rowCount(3, 2), 1u);

    prac.onCommand(cmd(fromNs(100.0), DRAMCmd::Ref, 0, 0));
    EXPECT_FALSE(prac.mitigationPending(0));
    EXPECT_EQ(prac.rowCount(0, 9), 0u);
    EXPECT_EQ(prac.rowCount(3, 2), 0u);
    // An all-bank REF is not a mitigation.
    EXPECT_EQ(prac.mitigations(), 0u);
}

TEST(RefreshManagerUnit, RotationAndInterval)
{
    PluginSpec spec;
    spec.kind = "refmgr-pb";
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    stats::Group root("ctrl");

    RefreshManager pb(spec, cfg.org, root, /*per_bank=*/true);
    EXPECT_EQ(pb.interval(cfg),
              cfg.effectiveREFI() / cfg.org.banksPerRank);
    for (unsigned round = 0; round < 2; ++round) {
        for (unsigned b = 0; b < cfg.org.banksPerRank; ++b) {
            EXPECT_EQ(pb.nextBank(), b);
            EXPECT_EQ(pb.advance(), b);
        }
    }

    RefreshManager all(spec, cfg.org, root, /*per_bank=*/false);
    EXPECT_EQ(all.interval(cfg), cfg.effectiveREFI());
    EXPECT_FALSE(all.perBank());
}

// ------------------------------------- checker rules on hand logs

DRAMOrg
checkerOrg()
{
    return testutil::bareTimingConfig().org;
}

DRAMTiming
checkerTiming()
{
    return testutil::bareTimingConfig().timing; // tREFI == 0
}

std::vector<std::string>
rulesOf(const std::vector<ProtocolViolation> &vs)
{
    std::vector<std::string> rules;
    for (const auto &v : vs)
        rules.push_back(v.rule);
    return rules;
}

TEST(CheckerPluginRules, PracFiresOnUnmitigatedThresholdAct)
{
    ProtocolChecker checker(checkerOrg(), checkerTiming());
    checker.setPracGuard(3, fromNs(80.0));

    // Three ACT/PRE pairs to row 5 reach the threshold; the fourth
    // ACT arrives without an intervening REFm.
    std::vector<CmdRecord> log{
        cmd(0, DRAMCmd::Act, 0, 0, 5),
        cmd(fromNs(35.0), DRAMCmd::Pre, 0, 0),
        cmd(fromNs(48.75), DRAMCmd::Act, 0, 0, 5),
        cmd(fromNs(83.75), DRAMCmd::Pre, 0, 0),
        cmd(fromNs(97.5), DRAMCmd::Act, 0, 0, 5),
        cmd(fromNs(132.5), DRAMCmd::Pre, 0, 0),
        cmd(fromNs(146.25), DRAMCmd::Act, 0, 0, 5),
    };
    auto vs = checker.check(log);
    ASSERT_EQ(vs.size(), 1u) << (vs.empty() ? "" : vs[0].toString());
    EXPECT_EQ(vs[0].rule, "prac");

    // The same stream with a mitigation refresh before the fourth
    // ACT is compliant (REFm after the precharge settled, the ACT
    // after the tRFM blackout).
    log.insert(log.end() - 1,
               cmd(fromNs(147.0), DRAMCmd::RefM, 0, 0));
    log.back() = cmd(fromNs(230.0), DRAMCmd::Act, 0, 0, 5);
    EXPECT_TRUE(checker.check(log).empty());
}

TEST(CheckerPluginRules, MitigationBlackoutIsTRFM)
{
    ProtocolChecker checker(checkerOrg(), checkerTiming());
    checker.setPracGuard(3, fromNs(80.0));

    std::vector<CmdRecord> log{
        cmd(0, DRAMCmd::RefM, 0, 0),
        cmd(fromNs(40.0), DRAMCmd::Act, 0, 0, 1),
    };
    auto vs = checker.check(log);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "tRFM");

    // At tRFM the bank is usable again.
    log[1] = cmd(fromNs(80.0), DRAMCmd::Act, 0, 0, 1);
    EXPECT_TRUE(checker.check(log).empty());
}

TEST(CheckerPluginRules, PerBankBlackoutIsTRFCpb)
{
    ProtocolChecker checker(checkerOrg(), checkerTiming());
    checker.setPerBankRefresh(fromNs(60.0));

    std::vector<CmdRecord> log{
        cmd(0, DRAMCmd::RefPb, 0, 0),
        cmd(fromNs(30.0), DRAMCmd::Act, 0, 0, 1),
    };
    auto vs = checker.check(log);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "tRFCpb");

    // Only the refreshed bank is blacked out; a neighbour may
    // activate immediately.
    log[1] = cmd(fromNs(30.0), DRAMCmd::Act, 0, 1, 1);
    EXPECT_TRUE(checker.check(log).empty());
}

TEST(CheckerPluginRules, RefPbLegality)
{
    ProtocolChecker checker(checkerOrg(), checkerTiming());
    checker.setPerBankRefresh(fromNs(60.0));

    // REFpb to a bank with an open row.
    std::vector<CmdRecord> open{
        cmd(0, DRAMCmd::Act, 0, 0, 1),
        cmd(fromNs(40.0), DRAMCmd::RefPb, 0, 0),
    };
    auto vs = checker.check(open);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "state");

    // REFpb before the precharge settled (tRP).
    std::vector<CmdRecord> early{
        cmd(0, DRAMCmd::Act, 0, 0, 1),
        cmd(fromNs(35.0), DRAMCmd::Pre, 0, 0),
        cmd(fromNs(40.0), DRAMCmd::RefPb, 0, 0),
    };
    vs = checker.check(early);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "tRP");
}

TEST(CheckerPluginRules, PerBankRefreshDeadline)
{
    // tREFI = 1 us, default slack 9 -> a bank starves at 9 us.
    DRAMTiming t = checkerTiming();
    t.tREFI = fromUs(1.0);
    ProtocolChecker checker(checkerOrg(), t);
    checker.setPerBankRefresh(fromNs(60.0));

    // REFpb rotates over banks 1..7 every 800 ns; bank 0 is never
    // refreshed. The stream itself is REFpb-legal throughout.
    std::vector<CmdRecord> log;
    for (unsigned k = 0; k < 12; ++k)
        log.push_back(cmd(fromNs(800.0) * k, DRAMCmd::RefPb, 0,
                          1 + (k % 7)));
    log.push_back(cmd(fromUs(9.6), DRAMCmd::RefPb, 0, 1));
    auto vs = checker.check(log);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "tREFI");
    EXPECT_NE(vs[0].detail.find("1 bank(s) of rank 0"),
              std::string::npos)
        << vs[0].detail;
    EXPECT_NE(vs[0].detail.find("bank 0"), std::string::npos);
}

TEST(CheckerPluginRules, AllBankLapseCoalescesToOneReport)
{
    DRAMTiming t = checkerTiming();
    t.tREFI = fromUs(1.0);
    ProtocolChecker checker(checkerOrg(), t);

    // No refresh ever: the first command past the deadline reports
    // all eight banks once; the latch suppresses repeats.
    std::vector<CmdRecord> log{
        cmd(fromUs(9.5), DRAMCmd::Act, 0, 0, 1),
        cmd(fromUs(9.5) + fromNs(6.25), DRAMCmd::Act, 0, 1, 1),
    };
    auto vs = checker.check(log);
    ASSERT_EQ(vs.size(), 1u);
    EXPECT_EQ(vs[0].rule, "tREFI");
    EXPECT_NE(vs[0].detail.find("8 bank(s) of rank 0"),
              std::string::npos)
        << vs[0].detail;
}

// ------------------------------------------- event-model integration

struct PluginRun
{
    std::vector<CmdRecord> log;
    std::vector<ProtocolViolation> violations;
    std::uint64_t rdCmds = 0;
    std::uint64_t refCmds = 0;
    std::uint64_t refPbCmds = 0;
    std::uint64_t refMCmds = 0;
    std::uint64_t eccWordsProcessed = 0;
    std::uint64_t eccWordsWithErrors = 0;
    std::uint64_t eccCorrected = 0;
    std::uint64_t eccDetected = 0;
    std::uint64_t eccEscaped = 0;
    unsigned eccWordsPerBurst = 0;
    std::uint64_t pracAlerts = 0;
    std::uint64_t pracMitigations = 0;
    std::uint64_t enqueues = 0;
    std::string statsJson;
};

/**
 * Run @p requests random/linear requests through the event model with
 * @p cfg, audit the command log with an armed checker, and collect
 * the plugin counters. @p mutate may install test fault hooks after
 * construction.
 */
PluginRun
runEventWithPlugins(DRAMCtrlConfig cfg, std::uint64_t requests,
                    Tick itt, bool linear,
                    const std::function<void(DRAMCtrl &)> &mutate = {})
{
    cfg.writeLowThreshold = 0.0;
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);
    CmdLogger logger;
    tb.ctrl().setCmdLogger(&logger);
    if (mutate)
        mutate(tb.eventCtrl());

    GenConfig gc;
    gc.windowSize = 1ULL << 16; // 64 rows: forces row re-activation
    gc.readPct = linear ? 100 : 70;
    gc.minITT = gc.maxITT = itt;
    gc.numRequests = requests;
    gc.seed = 13;

    BaseGen *gen;
    if (linear)
        gen = &tb.addGen<LinearGen>(gc);
    else
        gen = &tb.addGen<RandomGen>(gc);
    tb.runToCompletion([&] { return gen->done(); });

    PluginRun out;
    out.log = logger.log();
    for (const CmdRecord &c : out.log) {
        switch (c.cmd) {
          case DRAMCmd::Rd: ++out.rdCmds; break;
          case DRAMCmd::Ref: ++out.refCmds; break;
          case DRAMCmd::RefPb: ++out.refPbCmds; break;
          case DRAMCmd::RefM: ++out.refMCmds; break;
          default: break;
        }
    }

    ProtocolChecker checker(cfg.org, cfg.timing);
    plugin::armChecker(checker, cfg);
    checker.setMaxStoredViolations(16);
    out.violations = checker.check(out.log);

    const PluginChain &chain = tb.eventCtrl().pluginChain();
    if (const EccPlugin *ecc = chain.ecc()) {
        out.eccWordsProcessed = ecc->wordsProcessed();
        out.eccWordsWithErrors = ecc->wordsWithErrors();
        out.eccCorrected = ecc->correctedWords();
        out.eccDetected = ecc->detectedWords();
        out.eccEscaped = ecc->escapedWords();
        out.eccWordsPerBurst = ecc->wordsPerBurst();
    }
    if (const PracPlugin *prac = chain.prac()) {
        out.pracAlerts = prac->alertsRaised();
        out.pracMitigations = prac->mitigations();
    }
    if (!chain.empty())
        out.enqueues = chain.plugins().front()->enqueuesSeen();

    std::ostringstream os;
    tb.sim().dumpStatsJson(os);
    out.statsJson = os.str();
    return out;
}

DRAMCtrlConfig
fullChainConfig()
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    std::string err;
    EXPECT_TRUE(plugin::parsePluginList("ecc,prac,refmgr", cfg, err));
    for (PluginSpec &p : cfg.plugins) {
        if (p.kind == "ecc") {
            p.eccBer = 1e-3;
            p.eccSeed = 99;
        } else if (p.kind == "prac") {
            p.pracThreshold = 4;
        }
    }
    return cfg;
}

TEST(PluginIntegration, FullChainAuditsCleanOnEventModel)
{
    PluginRun run =
        runEventWithPlugins(fullChainConfig(), 600, fromNs(6.0),
                            /*linear=*/false);

    EXPECT_TRUE(run.violations.empty())
        << run.violations[0].toString();

    // Every request passed the enqueue hook.
    EXPECT_EQ(run.enqueues, 600u);

    // ECC decoded exactly the read bursts that went to DRAM.
    EXPECT_EQ(run.eccWordsProcessed,
              run.rdCmds * run.eccWordsPerBurst);
    EXPECT_GT(run.eccWordsWithErrors, 0u);
    EXPECT_EQ(run.eccWordsWithErrors,
              run.eccCorrected + run.eccDetected + run.eccEscaped);

    // The tight threshold forced mitigations, and each observed
    // REFm is counted by the plugin.
    EXPECT_GT(run.pracAlerts, 0u);
    EXPECT_GT(run.refMCmds, 0u);
    EXPECT_EQ(run.pracMitigations, run.refMCmds);
    EXPECT_LE(run.pracMitigations, run.pracAlerts);

    // Plugin statistics flow into the stats dump.
    EXPECT_NE(run.statsJson.find("wordsProcessed"), std::string::npos);
    EXPECT_NE(run.statsJson.find("alertsRaised"), std::string::npos);
    EXPECT_NE(run.statsJson.find("allBankRefs"), std::string::npos);
}

TEST(PluginIntegration, SkippedMitigationTripsPracRule)
{
    PluginRun run = runEventWithPlugins(
        fullChainConfig(), 600, fromNs(6.0), /*linear=*/false,
        [](DRAMCtrl &ctrl) { ctrl.testSkipPracMitigation(); });

    ASSERT_FALSE(run.violations.empty());
    EXPECT_EQ(run.refMCmds, 0u);
    auto rules = rulesOf(run.violations);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "prac"),
              rules.end());
}

DRAMCtrlConfig
perBankConfig(Tick trefi)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.timing.tREFI = trefi;
    std::string err;
    EXPECT_TRUE(plugin::parsePluginList("refmgr-pb", cfg, err));
    return cfg;
}

TEST(PluginIntegration, PerBankRefreshAuditsClean)
{
    PluginRun run = runEventWithPlugins(perBankConfig(fromUs(1.0)),
                                        600, fromNs(6.0),
                                        /*linear=*/false);
    EXPECT_TRUE(run.violations.empty())
        << run.violations[0].toString();
    EXPECT_GT(run.refPbCmds, 0u);
    EXPECT_EQ(run.refCmds, 0u); // the plugin replaces all-bank REF
}

TEST(PluginIntegration, ShrunkTRFCpbTripsRule)
{
    PluginRun run = runEventWithPlugins(
        perBankConfig(fromUs(1.0)), 600, fromNs(6.0),
        /*linear=*/false,
        [](DRAMCtrl &ctrl) { ctrl.testScaleTRFCpb(0.0); });

    ASSERT_FALSE(run.violations.empty());
    auto rules = rulesOf(run.violations);
    EXPECT_NE(std::find(rules.begin(), rules.end(), "tRFCpb"),
              rules.end());
}

TEST(PluginIntegration, StalledBankTripsRefreshDeadline)
{
    // 600 requests x 30 ns inject ~18 us of traffic; with tREFI =
    // 1 us the starved bank blows the 9 us deadline mid-run.
    PluginRun run = runEventWithPlugins(
        perBankConfig(fromUs(1.0)), 600, fromNs(30.0),
        /*linear=*/false,
        [](DRAMCtrl &ctrl) { ctrl.testStallPerBankRefresh(0); });

    ASSERT_FALSE(run.violations.empty());
    auto rules = rulesOf(run.violations);
    auto it = std::find(rules.begin(), rules.end(), "tREFI");
    ASSERT_NE(it, rules.end());
    const ProtocolViolation &v =
        run.violations[static_cast<std::size_t>(
            it - rules.begin())];
    EXPECT_NE(v.detail.find("bank 0"), std::string::npos) << v.detail;
}

TEST(PluginIntegration, PerBankMatchesAllBankOnInsensitiveTraffic)
{
    // Read-only, low-intensity linear traffic is refresh-insensitive:
    // both refresh policies must service exactly the same reads from
    // DRAM, differing only in the refresh commands themselves.
    DRAMCtrlConfig allBank = presets::ddr3_1333();
    allBank.timing.tREFI = fromUs(1.0);
    std::string err;
    ASSERT_TRUE(plugin::parsePluginList("refmgr", allBank, err));

    PluginRun a = runEventWithPlugins(allBank, 300, fromNs(50.0),
                                      /*linear=*/true);
    PluginRun b = runEventWithPlugins(perBankConfig(fromUs(1.0)), 300,
                                      fromNs(50.0), /*linear=*/true);

    EXPECT_TRUE(a.violations.empty());
    EXPECT_TRUE(b.violations.empty());
    EXPECT_EQ(a.rdCmds, b.rdCmds);
    EXPECT_EQ(a.rdCmds, 300u); // read-only: every request hits DRAM

    // The per-bank manager spreads one REFpb per bank over each
    // tREFI, so it issues roughly banksPerRank times as many refresh
    // commands as the all-bank baseline over the same span.
    EXPECT_GT(a.refCmds, 0u);
    EXPECT_EQ(a.refPbCmds, 0u);
    EXPECT_EQ(b.refCmds, 0u);
    EXPECT_GT(b.refPbCmds, 2 * a.refCmds);
}

// -------------------------- fuzzed ECC conservation (validate_)

TEST(ValidatePlugin, EccConservationAcrossFuzzedConfigs)
{
    // Draw plugin-enabled configurations and push each through the
    // full differential runner, which enforces the ECC conservation
    // law per model on top of the functional and protocol checks.
    Random rng(9001);
    validate::FuzzerOptions fo;
    fo.withPlugins = true;
    fo.numRequests = 120;

    unsigned eccRuns = 0;
    for (unsigned i = 0; i < 6; ++i) {
        validate::FuzzCase fc = validate::sampleCase(rng, fo);
        if (!fc.cfg.hasPlugin("ecc")) {
            // This property targets ECC: guarantee an armed plugin.
            PluginSpec ecc;
            ecc.kind = "ecc";
            ecc.eccBer = 1e-4;
            ecc.eccSeed = 17 + i;
            fc.cfg.plugins.push_back(ecc);
            fc.cfg.check();
        }
        ++eccRuns;

        validate::DiffOptions opts;
        validate::DiffResult dr =
            validate::runDiff(fc, /*streamSeed=*/500 + i, opts);
        EXPECT_TRUE(dr.pass)
            << validate::summarize(fc) << "\n" << dr.describe();

        ASSERT_TRUE(dr.event.eccArmed);
        EXPECT_EQ(dr.event.eccWordsWithErrors,
                  dr.event.eccCorrected + dr.event.eccDetected +
                      dr.event.eccEscaped);
        EXPECT_EQ(dr.event.eccWordsProcessed,
                  dr.event.rdCmds * dr.event.eccWordsPerBurst);
    }
    EXPECT_EQ(eccRuns, 6u);
}

} // namespace
} // namespace dramctrl
