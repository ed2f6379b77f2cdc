/**
 * @file
 * Tests of the validation subsystem itself: the config fuzzer and
 * differential runner must pass on a clean build, an injected timing
 * fault must be caught by the online protocol audit and shrink to a
 * tiny reproducer, repro files must round-trip exactly through JSON,
 * the online checker must agree with batch mode on identical logs,
 * the exactly-once check must report each response fault a fake model
 * plants, and the ddmin shrinker must converge under arbitrary
 * predicates.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cyclesim/cycle_ctrl.hh"
#include "dram/cmd_log.hh"
#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "dram/protocol_checker.hh"
#include "harness/testbench.hh"
#include "sim/random.hh"
#include "sim/simulator.hh"
#include "test_util.hh"
#include "trafficgen/trace.hh"
#include "validate/config_fuzzer.hh"
#include "validate/diff_runner.hh"
#include "validate/json_io.hh"
#include "validate/repro.hh"
#include "validate/request_stream.hh"
#include "validate/shrinker.hh"

namespace dramctrl {
namespace validate {
namespace {

/** A small deterministic scenario shared by the fault tests. */
FuzzCase
fixedCase()
{
    FuzzCase fc;
    fc.cfg = testutil::noRefreshConfig();
    fc.presetName = "ddr3_1333";
    fc.stream.numRequests = 60;
    fc.stream.windowSize = 1ULL << 16;
    fc.stream.readPct = 100; // reads exercise tRCD on every row miss
    fc.stream.minITT = fromNs(5.0);
    fc.stream.maxITT = fromNs(40.0);
    return fc;
}

TEST(ValidateFuzz, ShortFuzzBatchPasses)
{
    FuzzerOptions fopts;
    fopts.numRequests = 80; // keep the batch quick
    for (std::uint64_t i = 0; i < 20; ++i) {
        Random rng(0xf00d + i);
        FuzzCase fc = sampleCase(rng, fopts);
        std::uint64_t streamSeed = rng.next();
        DiffResult dr = runDiff(fc, streamSeed);
        EXPECT_TRUE(dr.pass)
            << "case " << i << " (" << summarize(fc) << "):\n"
            << dr.describe();
    }
}

TEST(ValidateFuzz, InjectedTRCDFaultIsCaught)
{
    FuzzCase fc = fixedCase();
    DiffOptions opts;
    opts.injectTRCDScale = 0.5;
    opts.runCycle = false; // the fault is in the event model

    DiffResult dr = runDiff(fc, 99, opts);
    ASSERT_FALSE(dr.pass);
    EXPECT_GT(dr.event.protocolViolations, 0u);
    bool namesTRCD = false;
    for (const std::string &s : dr.event.violationSamples)
        if (s.find("tRCD") != std::string::npos)
            namesTRCD = true;
    EXPECT_TRUE(namesTRCD) << dr.describe();
}

TEST(ValidateFuzz, InjectedFaultShrinksToTinyRepro)
{
    FuzzCase fc = fixedCase();
    DiffOptions opts;
    opts.injectTRCDScale = 0.5;
    opts.runCycle = false;

    RequestStream full = generateStream(fc.stream, 99);
    ASSERT_FALSE(runDiffStream(fc, full, opts).pass);

    ShrinkOutcome sh = shrinkStream(fc, full, opts);
    EXPECT_TRUE(sh.minimal);
    // A single read on a closed bank already violates halved tRCD.
    EXPECT_LE(sh.stream.size(), 2u);
    EXPECT_FALSE(runDiffStream(fc, sh.stream, opts).pass);
}

TEST(ValidateFuzz, ReproRoundTripsThroughJson)
{
    ReproFile repro;
    repro.fc = fixedCase();
    repro.streamSeed = 99;
    repro.stream = generateStream(repro.fc.stream, 99);
    repro.stream.resize(5);
    repro.opts.injectTRCDScale = 0.5;
    repro.opts.runCycle = false;
    repro.opts.bandwidthRelTol = 0.25;
    repro.note = "round-trip test";

    std::string text = toJson(repro).dump(2);

    Json parsed;
    std::string err;
    ASSERT_TRUE(parseJson(text, parsed, &err)) << err;
    ReproFile back;
    ASSERT_TRUE(fromJson(parsed, back, &err)) << err;

    EXPECT_EQ(back.fc.presetName, repro.fc.presetName);
    EXPECT_EQ(back.fc.cfg.timing.tRCD, repro.fc.cfg.timing.tRCD);
    EXPECT_EQ(back.fc.cfg.timing.tREFI, repro.fc.cfg.timing.tREFI);
    EXPECT_EQ(back.fc.cfg.readBufferSize, repro.fc.cfg.readBufferSize);
    EXPECT_EQ(back.fc.stream.numRequests, repro.fc.stream.numRequests);
    EXPECT_EQ(back.streamSeed, repro.streamSeed);
    EXPECT_EQ(back.opts.injectTRCDScale, repro.opts.injectTRCDScale);
    EXPECT_EQ(back.opts.runCycle, repro.opts.runCycle);
    EXPECT_EQ(back.opts.bandwidthRelTol, repro.opts.bandwidthRelTol);
    EXPECT_EQ(back.note, repro.note);
    EXPECT_EQ(back.stream, repro.stream);

    // And the replayed repro still fails exactly as recorded.
    EXPECT_FALSE(replay(back).pass);
}

TEST(ValidateFuzz, OnlineCheckerMatchesBatchMode)
{
    // Produce a command log from a deliberately broken controller.
    DRAMCtrlConfig cfg = testutil::noRefreshConfig();
    Simulator sim;
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    ctrl.testScaleTRCD(0.5);
    CmdLogger log;
    ctrl.setCmdLogger(&log);
    testutil::TestRequestor req(sim, "req");
    req.port().bind(ctrl.port());

    Random rng(3);
    Tick when = 0;
    for (unsigned i = 0; i < 80; ++i) {
        when += fromNs(rng.uniform(5, 40));
        req.inject(when, MemCmd::ReadReq,
                   rng.uniform(0, 1023) * 64);
    }
    sim.run(fromUs(200));
    ASSERT_TRUE(req.allResponded());

    ProtocolChecker batch(cfg.org, cfg.timing);
    auto batchViolations = batch.check(log.log());
    ASSERT_GT(batchViolations.size(), 0u);

    ProtocolChecker online(cfg.org, cfg.timing);
    for (const CmdRecord &r : log.log())
        online.observe(r);
    online.finish();

    EXPECT_EQ(online.violationCount(), batchViolations.size());
    EXPECT_EQ(online.commandsChecked(), log.log().size());
    EXPECT_EQ(online.pendingRecords(), 0u);
    ASSERT_FALSE(online.violations().empty());
    EXPECT_EQ(online.violations().front().rule,
              batchViolations.front().rule);
}

/** A fault a model might commit when answering. */
enum class Fault { None, Lose, Duplicate, Alter, Unknown };

/**
 * A fake model: answers each request 10 ns after accepting it, and
 * commits its fault on the second request.
 */
class FaultyMemory : public SimObject
{
  public:
    FaultyMemory(Simulator &sim, Fault fault)
        : SimObject(sim, "mem"), fault_(fault), port_(*this),
          respondEvent_([this] { respond(); }, "mem.respondEvent")
    {}

    ResponsePort &port() { return port_; }

  private:
    class Port : public ResponsePort
    {
      public:
        explicit Port(FaultyMemory &mem)
            : ResponsePort("mem.port"), mem_(mem)
        {}

        bool
        recvTimingReq(Packet *pkt) override
        {
            mem_.pending_ = pkt;
            mem_.schedule(mem_.respondEvent_,
                          mem_.curTick() + fromNs(10.0));
            return true;
        }

        void recvRespRetry() override {}

      private:
        FaultyMemory &mem_;
    };

    /** A response that reuses packet id @p id, as a buggy model might. */
    static Packet *
    forge(std::uint64_t id, const Packet &req, Addr addr)
    {
        const std::uint64_t next = Packet::nextId();
        Packet::setNextId(id);
        auto *pkt = new Packet(req.cmd(), addr, req.size(), 0);
        Packet::setNextId(next);
        pkt->makeResponse();
        return pkt;
    }

    void
    respond()
    {
        Packet *pkt = pending_;
        Fault fault = ++served_ == 2 ? fault_ : Fault::None;
        if (fault == Fault::Lose) {
            delete pkt;
            return;
        }
        Packet *extra = nullptr;
        if (fault == Fault::Duplicate)
            extra = forge(pkt->id(), *pkt, pkt->addr());
        if (fault == Fault::Unknown) {
            extra = new Packet(MemCmd::ReadReq, 0x40, 64, 0);
            extra->makeResponse();
        }
        if (fault == Fault::Alter) {
            Packet *altered = forge(pkt->id(), *pkt, pkt->addr() + 64);
            delete pkt;
            pkt = altered;
        } else {
            pkt->makeResponse();
        }
        port_.sendTimingResp(pkt);
        if (extra != nullptr)
            port_.sendTimingResp(extra);
    }

    Fault fault_;
    Port port_;
    Packet *pending_ = nullptr;
    unsigned served_ = 0;
    EventFunctionWrapper respondEvent_;
};

/**
 * Replay four reads through an ExactlyOnceCheck into a FaultyMemory,
 * as the differential runner replays a stream into a model, and
 * return checkFunctional's verdict.
 */
DiffResult
verdictAgainst(Fault fault)
{
    const RequestStream stream = {
        {fromNs(100.0), true, 0x0, 64},
        {fromNs(200.0), true, 0x40, 64},
        {fromNs(300.0), true, 0x80, 64},
        {fromNs(400.0), true, 0xc0, 64},
    };
    Simulator sim;
    FaultyMemory mem(sim, fault);
    TracePlayer player(sim, "player", stream, 0);
    ExactlyOnceCheck check(stream);
    player.port().bind(check.cpuSidePort());
    check.memSidePort().bind(mem.port());
    auto answered = [&] {
        return player.done() && check.outstanding() == 0;
    };
    harness::runUntil(sim, answered, fromUs(1.0), fromUs(10.0));

    ModelResult mr;
    mr.completed = answered();
    mr.responses = check.responses();
    mr.spurious = check.spurious();
    mr.duplicates = check.duplicates();
    mr.mismatched = check.mismatched();
    mr.unanswered = check.unanswered();
    DiffResult dr;
    checkFunctional("event", mr, stream, dr);
    return dr;
}

using Failures = std::vector<std::string>;

TEST(ExactlyOnceCheck, CleanModelPasses)
{
    EXPECT_TRUE(verdictAgainst(Fault::None).pass);
}

TEST(ExactlyOnceCheck, LostResponseIsUnanswered)
{
    EXPECT_EQ(verdictAgainst(Fault::Lose).failures,
              (Failures{"event: timed out with 1 requests unanswered",
                        "event: 3 responses for 4 requests"}));
}

TEST(ExactlyOnceCheck, RepeatedResponseIsDuplicate)
{
    EXPECT_EQ(verdictAgainst(Fault::Duplicate).failures,
              (Failures{"event: 5 responses for 4 requests",
                        "event: 1 duplicate responses"}));
}

TEST(ExactlyOnceCheck, AlteredResponseIsMismatched)
{
    EXPECT_EQ(verdictAgainst(Fault::Alter).failures,
              (Failures{"event: 1 mismatched responses"}));
}

TEST(ExactlyOnceCheck, UnknownResponseIsSpurious)
{
    EXPECT_EQ(verdictAgainst(Fault::Unknown).failures,
              (Failures{"event: 5 responses for 4 requests",
                        "event: 1 spurious responses"}));
}

TEST(ValidateFuzz, ShrinkerConvergesUnderArbitraryPredicate)
{
    RequestStream s;
    for (unsigned i = 0; i < 40; ++i)
        s.push_back({(i + 1) * fromNs(10.0), true, i * 64, 64});

    // "Interesting" iff the two magic requests both survive: ddmin
    // must isolate exactly that pair.
    auto fails = [](const RequestStream &c) {
        bool a = false, b = false;
        for (const TraceEntry &e : c) {
            a |= e.addr == 7 * 64;
            b |= e.addr == 29 * 64;
        }
        return a && b;
    };

    ShrinkOutcome sh = shrinkStreamWith(s, fails);
    EXPECT_TRUE(sh.minimal);
    ASSERT_EQ(sh.stream.size(), 2u);
    EXPECT_EQ(sh.stream[0].addr, 7u * 64);
    EXPECT_EQ(sh.stream[1].addr, 29u * 64);
    // Each survivor keeps its 10 ns gap to the request before it.
    EXPECT_EQ(sh.stream[0].tick, fromNs(10.0));
    EXPECT_EQ(sh.stream[1].tick, fromNs(20.0));
    EXPECT_GT(sh.evaluations, 0u);
}

TEST(ValidateFuzz, SampledConfigsAreValidAndQueueSafe)
{
    FuzzerOptions fopts;
    for (std::uint64_t i = 0; i < 200; ++i) {
        Random rng(0xabc + i);
        FuzzCase fc = sampleCase(rng, fopts);
        // check() fatals on inconsistency; reaching here means the
        // sample is self-consistent. Verify the anti-deadlock floor:
        // the largest possible request must fit the read queue.
        unsigned maxBytes = fc.stream.mixedSizes
                                ? 256
                                : fc.stream.blockSize;
        unsigned worst = maxBytes / fc.cfg.org.burstSize() + 1;
        EXPECT_GE(fc.cfg.readBufferSize, worst);
        EXPECT_GE(fc.cfg.writeBufferSize, worst);
        EXPECT_LE(fc.stream.windowSize, fc.cfg.org.channelCapacity);
    }
}

/**
 * The fuzzer's cycle-compatible carve-outs consult
 * CycleDRAMCtrl::unsupportedFeature(): no cycle-compatible sample may
 * be refused by it, with or without plugins, from either preset pool,
 * while event-only samples still draw every feature it names.
 */
TEST(ValidateFuzz, CycleCompatibleSamplesAreNeverRefusedByTheCycleModel)
{
    std::vector<std::string> drawn;
    for (bool cycle : {true, false}) {
        for (bool plugins : {false, true}) {
            for (bool all_standards : {false, true}) {
                FuzzerOptions fopts;
                fopts.cycleCompatible = cycle;
                fopts.withPlugins = plugins;
                if (all_standards)
                    fopts.standards = presets::names();
                for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
                    Random rng(seed);
                    FuzzCase fc = sampleCase(rng, fopts);
                    const char *f =
                        cyclesim::CycleDRAMCtrl::unsupportedFeature(
                            fc.cfg);
                    if (cycle)
                        EXPECT_EQ(f, nullptr)
                            << f << " in seed " << seed << ": "
                            << summarize(fc);
                    else if (f != nullptr)
                        drawn.push_back(f);
                }
            }
        }
    }
    for (const char *feature :
         {"open_adaptive", "closed_adaptive", "self-refresh",
          "power-down", "per-rank refresh"})
        EXPECT_NE(std::find(drawn.begin(), drawn.end(), feature),
                  drawn.end())
            << "no event-only sample drew " << feature;
}

} // namespace
} // namespace validate
} // namespace dramctrl
