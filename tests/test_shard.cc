/**
 * @file
 * Sharded-engine and sharded-crossbar tests (`ctest -R Shard`).
 *
 * The load-bearing property is determinism: a sharded simulation must
 * produce byte-identical stats and command streams at every
 * --sim-threads setting, because the conservative engine's window
 * boundaries and barrier merge order are pure functions of the model
 * state. These tests run the same systems at 1, 2, 3 and 8 threads and
 * compare full stats JSON dumps and merged command logs for equality.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hh"
#include "cpu/workload.hh"
#include "dram/dram_presets.hh"
#include "dram/protocol_checker.hh"
#include "harness/multichannel.hh"
#include "mem/packet_queue.hh"
#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/simulator.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "xbar/xbar.hh"

namespace dramctrl {
namespace {

// --------------------------------------------------------------------
// Engine-level ping-pong
// --------------------------------------------------------------------

/** Bounces a token to its peer with a fixed delay. */
class Pinger : public SimObject
{
  public:
    Pinger(Simulator &sim, std::string name, Tick delay)
        : SimObject(sim, std::move(name)), delay_(delay),
          inbox_(*this, "in.wake", Event::kArrivalPriority,
                 [this](Tick t, Packet *p, std::uint64_t a) {
                     (void)t;
                     (void)p;
                     return onToken(a);
                 })
    {
    }

    void setPeer(Pinger *peer) { peer_ = peer; }
    PacketQueue &inbox() { return inbox_; }

    unsigned received = 0;
    Tick lastTick = 0;

  private:
    bool
    onToken(std::uint64_t hop)
    {
        ++received;
        lastTick = curTick();
        if (hop > 0)
            simulator().shardEngine().post(
                shardId(), peer_->shardId(), curTick() + delay_,
                peer_->inbox(), nullptr, hop - 1);
        return true;
    }

    Tick delay_;
    Pinger *peer_ = nullptr;
    PacketQueue inbox_;
};

struct PingResult
{
    Tick finalTick;
    unsigned a, b;
    std::uint64_t windows, messages;

    bool
    operator==(const PingResult &o) const
    {
        return finalTick == o.finalTick && a == o.a && b == o.b &&
               windows == o.windows && messages == o.messages;
    }
};

PingResult
runPingPong(unsigned threads, std::uint64_t hops, Tick delay)
{
    Simulator sim("pingpong");
    sim.configureShards(2, delay);
    sim.setSimThreads(threads);

    auto a = std::make_unique<Pinger>(sim, "a", delay);
    std::unique_ptr<Pinger> b;
    {
        Simulator::ShardScope scope(sim, 1);
        b = std::make_unique<Pinger>(sim, "b", delay);
    }
    EXPECT_EQ(a->shardId(), 0u);
    EXPECT_EQ(b->shardId(), 1u);
    a->setPeer(b.get());
    b->setPeer(a.get());

    sim.shardEngine().post(0, 1, delay, b->inbox(), nullptr, hops);
    Tick end = sim.run(kMaxTick);
    return PingResult{end, a->received, b->received,
                      sim.shardEngine().numWindows(),
                      sim.shardEngine().numMessages()};
}

TEST(ShardEngine, PingPongCountsAndTiming)
{
    const Tick delay = fromNs(5.0);
    PingResult r = runPingPong(1, 10, delay);
    // 11 tokens delivered: the seed plus ten bounces, alternating
    // b, a, b, ... — six to b, five to a.
    EXPECT_EQ(r.b, 6u);
    EXPECT_EQ(r.a, 5u);
    EXPECT_EQ(r.messages, 11u);
    // The last token lands at 11 * delay. A run to exhaustion ends at
    // the tick of the last event serviced on any shard, as a single
    // queue would, whatever the window boundaries.
    EXPECT_EQ(r.finalTick, 11 * delay);
}

TEST(ShardEngine, ThreadCountInvariant)
{
    const Tick delay = fromNs(3.0);
    PingResult one = runPingPong(1, 101, delay);
    PingResult two = runPingPong(2, 101, delay);
    PingResult eight = runPingPong(8, 101, delay);
    EXPECT_TRUE(one == two);
    EXPECT_TRUE(one == eight);
}

/** Posts a packet to another shard's inbox, then panics. */
class Bomb : public SimObject
{
  public:
    Bomb(Simulator &sim, Pinger &target)
        : SimObject(sim, "bomb"), target_(target),
          event_([this] { explode(); }, "bomb.event")
    {}

    void startup() override { schedule(event_, fromNs(1.0)); }

  private:
    void
    explode()
    {
        simulator().shardEngine().post(
            shardId(), target_.shardId(), curTick() + fromNs(5.0),
            target_.inbox(), new Packet(MemCmd::ReadReq, 0, 64, 0), 0);
        panic("planted panic with a message in flight");
    }

    Pinger &target_;
    EventFunctionWrapper event_;
};

TEST(ShardEngine, PanicWithMessagesInFlightSurfacesThePanic)
{
    // Unwinding destroys the engine with the packet still in its
    // outbox: the engine frees it, and the panic is what surfaces.
    const std::uint64_t live = Packet::liveCount();
    setThrowOnError(true);
    std::string what;
    try {
        Simulator sim("panic");
        sim.configureShards(2, fromNs(5.0));
        std::unique_ptr<Pinger> target;
        {
            Simulator::ShardScope scope(sim, 1);
            target = std::make_unique<Pinger>(sim, "target", fromNs(5.0));
        }
        Bomb bomb(sim, *target);
        sim.run(kMaxTick);
    } catch (const std::runtime_error &e) {
        what = e.what();
    }
    setThrowOnError(false);
    EXPECT_NE(what.find("planted panic with a message in flight"),
              std::string::npos)
        << what;
    EXPECT_EQ(Packet::liveCount(), live);
}

TEST(ShardEngine, FiniteHorizonReachesExactly)
{
    Simulator sim("horizon");
    sim.configureShards(2, fromNs(4.0));
    Tick end = sim.run(fromNs(123.0));
    EXPECT_EQ(end, fromNs(123.0));
    EXPECT_EQ(sim.shardQueue(1).curTick(), fromNs(123.0));
}

// --------------------------------------------------------------------
// Independence of run() horizons
// --------------------------------------------------------------------

/** Logs each arrival its inbox hands it, as name@tick/arg. */
class LoggingReceiver : public SimObject
{
  public:
    LoggingReceiver(Simulator &sim, std::string name,
                    std::vector<std::string> &log)
        : SimObject(sim, std::move(name)), log_(log),
          inbox_(*this, "in.wake", Event::kArrivalPriority,
                 [this](Tick t, Packet *p, std::uint64_t a) {
                     (void)p;
                     log_.push_back(this->name() + "@" +
                                    std::to_string(t) + "/" +
                                    std::to_string(a));
                     return true;
                 })
    {
    }

    PacketQueue &inbox() { return inbox_; }

  private:
    std::vector<std::string> &log_;
    PacketQueue inbox_;
};

/** Posts one message to @p to at @p at, due at @p due; arg: its shard. */
class OneShotSender : public SimObject
{
  public:
    OneShotSender(Simulator &sim, std::string name, LoggingReceiver &to,
                  Tick at, Tick due)
        : SimObject(sim, std::move(name)), to_(to), due_(due),
          fire_(
              [this] {
                  simulator().shardEngine().post(shardId(),
                                                 to_.shardId(), due_,
                                                 to_.inbox(), nullptr,
                                                 shardId());
              },
              this->name() + ".fire")
    {
        schedule(fire_, at);
    }

  private:
    LoggingReceiver &to_;
    Tick due_;
    EventFunctionWrapper fire_;
};

/**
 * Two messages due at the same tick, to inboxes a and b on shard 0 or
 * (@p one_inbox) both to a: from shard 2 at 17 ns and from shard 1 at
 * 20 ns. In one window the barrier merges them shard 1 first; a
 * horizon between the two sends delivers shard 2's at an earlier
 * barrier. Either way they must be handled in one order.
 */
std::vector<std::string>
runSameTickArrivals(const std::vector<Tick> &horizons, bool one_inbox)
{
    const Tick lookahead = fromNs(4.0);
    const Tick due = fromNs(40.0);
    Simulator sim("two_inboxes");
    sim.configureShards(3, lookahead);
    std::vector<std::string> log;
    LoggingReceiver a(sim, "a", log);
    LoggingReceiver b(sim, "b", log);
    std::unique_ptr<OneShotSender> to_b, to_a;
    {
        Simulator::ShardScope scope(sim, 1);
        to_b = std::make_unique<OneShotSender>(
            sim, "to_b", one_inbox ? a : b, fromNs(20.0), due);
    }
    {
        Simulator::ShardScope scope(sim, 2);
        to_a = std::make_unique<OneShotSender>(sim, "to_a", a,
                                               fromNs(17.0), due);
    }
    for (Tick h : horizons)
        sim.run(h);
    sim.run(kMaxTick);
    return log;
}

TEST(ShardEngine, SameTickInboxOrderDoesNotDependOnTheHorizon)
{
    // Two inboxes run in the order they were built; one inbox hands
    // same-tick entries over in sender order.
    for (bool one_inbox : {false, true}) {
        const std::vector<std::string> ref =
            runSameTickArrivals({}, one_inbox);
        const std::vector<std::string> want =
            one_inbox ? std::vector<std::string>{"a@40000/1", "a@40000/2"}
                      : std::vector<std::string>{"a@40000/2", "b@40000/1"};
        EXPECT_EQ(ref, want);
        std::vector<Tick> every_ns;
        for (double ns = 1.0; ns < 40.0; ns += 1.0) {
            EXPECT_EQ(runSameTickArrivals({fromNs(ns)}, one_inbox), ref)
                << "horizon at " << ns << " ns";
            every_ns.push_back(fromNs(ns));
        }
        EXPECT_EQ(runSameTickArrivals(every_ns, one_inbox), ref);
    }
}

// --------------------------------------------------------------------
// Barrier merge order
// --------------------------------------------------------------------

/** One delivered message: (due tick, sender shard, send index). */
struct Delivery
{
    Tick when;
    unsigned from;
    unsigned index;

    bool
    operator==(const Delivery &o) const
    {
        return when == o.when && from == o.from && index == o.index;
    }
    bool
    operator<(const Delivery &o) const
    {
        if (when != o.when)
            return when < o.when;
        if (from != o.from)
            return from < o.from;
        return index < o.index;
    }
};

std::uint64_t
packDelivery(unsigned from, unsigned index)
{
    return (static_cast<std::uint64_t>(from) << 32) | index;
}

/** Logs every message it receives, in delivery order. */
class RecordingMailbox : public ShardMailbox
{
  public:
    void
    deliver(Tick when, Packet *pkt, std::uint64_t arg) override
    {
        (void)pkt;
        log.push_back(Delivery{when, static_cast<unsigned>(arg >> 32),
                               static_cast<unsigned>(arg)});
    }

    std::vector<Delivery> log;
};

/** (target shard, due tick) of one planned post. */
using PlannedPost = std::pair<unsigned, Tick>;

/**
 * What shard @p s posts in the round firing at @p at: several messages
 * due at one tick to the shared target 3 (the first one due later
 * than the rest, so send order and due order disagree), plus one to
 * its neighbour. Shard 3 posts to itself as well.
 */
std::vector<PlannedPost>
roundPlan(unsigned s, Tick at, Tick lookahead)
{
    return {{3u, at + 2 * lookahead},
            {3u, at + lookahead},
            {3u, at + lookahead},
            {(s + 1) % 7, at + lookahead}};
}

/** Fires at each round tick and posts that round's plan. */
class RoundSender : public SimObject
{
  public:
    RoundSender(Simulator &sim, std::string name,
                std::vector<RecordingMailbox> &boxes,
                std::vector<Tick> rounds, Tick lookahead)
        : SimObject(sim, std::move(name)), boxes_(boxes),
          rounds_(std::move(rounds)), lookahead_(lookahead),
          fire_([this] { onRound(); }, this->name() + ".fire")
    {
        schedule(fire_, rounds_[0]);
    }

    /** Post one message from this shard, tagged with its send index. */
    void
    send(unsigned to, Tick when)
    {
        simulator().shardEngine().post(shardId(), to, when, boxes_[to],
                                       nullptr,
                                       packDelivery(shardId(), sent_++));
    }

  private:
    void
    onRound()
    {
        for (const PlannedPost &p :
             roundPlan(shardId(), curTick(), lookahead_))
            send(p.first, p.second);
        if (++round_ < rounds_.size())
            schedule(fire_, rounds_[round_]);
    }

    std::vector<RecordingMailbox> &boxes_;
    std::vector<Tick> rounds_;
    Tick lookahead_;
    unsigned sent_ = 0;
    std::size_t round_ = 0;
    EventFunctionWrapper fire_;
};

struct MergeResult
{
    std::vector<std::vector<Delivery>> logs;
    std::uint64_t messages;
    std::uint64_t windows;
    Tick end;
};

constexpr unsigned kMergeShards = 7;
constexpr unsigned kPreRunSender = 5;

MergeResult
runMergeOrder(unsigned threads, Tick lookahead,
              const std::vector<Tick> &rounds, Tick until = kMaxTick)
{
    Simulator sim("merge");
    sim.configureShards(kMergeShards, lookahead);
    sim.setSimThreads(threads);

    std::vector<RecordingMailbox> boxes(kMergeShards);
    std::vector<std::unique_ptr<RoundSender>> senders;
    for (unsigned s = 0; s < kMergeShards; ++s) {
        Simulator::ShardScope scope(sim, s);
        senders.push_back(std::make_unique<RoundSender>(
            sim, "sender" + std::to_string(s), boxes, rounds,
            lookahead));
    }
    // Posted before the first run(): due with the first round's
    // messages, but delivered at the barrier before any window.
    senders[kPreRunSender]->send(3, rounds[0] + lookahead);

    MergeResult r;
    r.end = sim.run(until);
    for (const RecordingMailbox &box : boxes)
        r.logs.push_back(box.log);
    r.messages = sim.shardEngine().numMessages();
    r.windows = sim.shardEngine().numWindows();
    return r;
}

TEST(ShardEngine, SameTickMergeOrderAtAnyWidth)
{
    const Tick lookahead = fromNs(4.0);
    // Far enough apart that each round's messages are all delivered
    // before the next round fires: one window, one barrier per round.
    const std::vector<Tick> rounds = {fromNs(10.0), fromNs(30.0)};

    // Expected per-target logs: the pre-run message, then each round's
    // messages in (when, from, send index) order.
    std::vector<std::vector<Delivery>> want(kMergeShards);
    std::vector<unsigned> sent(kMergeShards, 0);
    want[3].push_back(
        Delivery{rounds[0] + lookahead, kPreRunSender,
                 sent[kPreRunSender]++});
    std::uint64_t total = 1;
    for (Tick at : rounds) {
        std::vector<std::vector<Delivery>> batch(kMergeShards);
        for (unsigned s = 0; s < kMergeShards; ++s) {
            for (const PlannedPost &p : roundPlan(s, at, lookahead)) {
                batch[p.first].push_back(Delivery{p.second, s, sent[s]++});
                ++total;
            }
        }
        for (unsigned t = 0; t < kMergeShards; ++t) {
            std::sort(batch[t].begin(), batch[t].end());
            want[t].insert(want[t].end(), batch[t].begin(),
                           batch[t].end());
        }
    }

    MergeResult ref = runMergeOrder(1, lookahead, rounds);
    EXPECT_EQ(ref.messages, total);
    for (unsigned t = 0; t < kMergeShards; ++t)
        EXPECT_EQ(ref.logs[t], want[t]) << "target shard " << t;

    for (unsigned threads : {2u, 3u, 4u, 8u}) {
        MergeResult r = runMergeOrder(threads, lookahead, rounds);
        EXPECT_EQ(r.messages, ref.messages) << threads << " threads";
        EXPECT_EQ(r.windows, ref.windows) << threads << " threads";
        EXPECT_EQ(r.logs, ref.logs) << threads << " threads";
    }
}

TEST(ShardEngine, RunLeavesNoMessageInFlight)
{
    // The round fires in the run's last window, [10 ns, 11 ns], and its
    // messages are due after the horizon: run() must still have put
    // them in their mailboxes when it returns.
    const Tick lookahead = fromNs(4.0);
    const Tick until = fromNs(11.0);
    MergeResult ref = runMergeOrder(1, lookahead, {fromNs(10.0)}, until);
    EXPECT_EQ(ref.messages, 1 + 4 * kMergeShards);
    for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
        MergeResult r =
            runMergeOrder(threads, lookahead, {fromNs(10.0)}, until);
        EXPECT_EQ(r.end, until) << threads << " threads";
        std::uint64_t logged = 0;
        for (const std::vector<Delivery> &log : r.logs)
            logged += log.size();
        EXPECT_EQ(logged, ref.messages) << threads << " threads";
        EXPECT_EQ(r.logs, ref.logs) << threads << " threads";
    }
}

TEST(ShardEngine, SilentTailKeepsTheEndTick)
{
    // A RecordingMailbox schedules nothing, as a credit returning to a
    // pool that is not stalled does. The last round's messages are due
    // after the last event, so the next window may start at a tick
    // where nothing runs; a run to exhaustion still ends at the tick
    // of the last event serviced.
    const Tick lookahead = fromNs(4.0);
    const std::vector<Tick> rounds = {fromNs(10.0), fromNs(30.0)};
    MergeResult ref = runMergeOrder(1, lookahead, rounds);
    EXPECT_EQ(ref.end, rounds.back());
    for (unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
        MergeResult r = runMergeOrder(threads, lookahead, rounds);
        EXPECT_EQ(r.end, rounds.back()) << threads << " threads";
        EXPECT_EQ(r.windows, ref.windows) << threads << " threads";
        EXPECT_EQ(r.messages, ref.messages) << threads << " threads";
    }
}

// --------------------------------------------------------------------
// Multi-channel system determinism
// --------------------------------------------------------------------

struct SysResult
{
    std::string statsJson;
    std::string cmdLog;
    Tick finalTick;
};

/** Dump every channel's command log, channel-major, tick-sorted. */
std::string
mergedCmdLog(std::vector<CmdLogger> &loggers)
{
    std::ostringstream os;
    for (unsigned ch = 0; ch < loggers.size(); ++ch) {
        auto log = loggers[ch].log();
        std::stable_sort(log.begin(), log.end(),
                         [](const CmdRecord &x, const CmdRecord &y) {
                             return x.tick < y.tick;
                         });
        for (const CmdRecord &rec : log)
            os << "ch" << ch << " " << rec.toString() << "\n";
    }
    return os.str();
}

SysResult
runSystem(unsigned channels, unsigned threads, const std::string &shape,
          std::uint64_t requests)
{
    harness::MultiChannelConfig cfg;
    cfg.channels = channels;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    cfg.simThreads = threads;

    harness::MultiChannelSystem sys(cfg);
    auto &loggers = sys.attachCmdLoggers();

    GenConfig gc;
    gc.windowSize = 1ULL << 22;
    gc.minITT = fromNs(3.0);
    gc.maxITT = fromNs(9.0);
    gc.numRequests = requests;
    for (unsigned i = 0; i < channels; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, channels,
                                              sys.totalCapacity());
        g.seed = 7 + i;
        if (shape == "linear") {
            g.readPct = 100;
            sys.addGen<LinearGen>(g);
        } else if (shape == "mixed") {
            g.readPct = 50;
            sys.addGen<RandomGen>(g);
        } else {
            g.readPct = 100;
            sys.addGen<RandomGen>(g);
        }
    }

    SysResult r;
    r.finalTick = sys.runToCompletion();
    std::ostringstream os;
    sys.sim().dumpStatsJson(os);
    r.statsJson = os.str();
    r.cmdLog = mergedCmdLog(loggers);
    return r;
}

class ShardDeterminism
    : public testing::TestWithParam<std::tuple<unsigned, const char *>>
{
};

TEST_P(ShardDeterminism, ByteIdenticalAcrossThreadCounts)
{
    unsigned channels = std::get<0>(GetParam());
    std::string shape = std::get<1>(GetParam());
    SysResult one = runSystem(channels, 1, shape, 120);
    EXPECT_FALSE(one.cmdLog.empty());
    // Width 3 divides none of the shard counts, so executors own
    // unequal shard sets.
    for (unsigned threads : {2u, 3u, 8u}) {
        SysResult r = runSystem(channels, threads, shape, 120);
        EXPECT_EQ(one.finalTick, r.finalTick) << threads << " threads";
        EXPECT_EQ(one.statsJson, r.statsJson) << threads << " threads";
        EXPECT_EQ(one.cmdLog, r.cmdLog) << threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ShardDeterminism,
    testing::Values(std::make_tuple(2u, "random"),
                    std::make_tuple(4u, "mixed"),
                    std::make_tuple(4u, "linear"),
                    std::make_tuple(8u, "random"),
                    std::make_tuple(64u, "random")),
    [](const testing::TestParamInfo<std::tuple<unsigned, const char *>>
           &info) {
        return "ch" + std::to_string(std::get<0>(info.param)) + "_" +
               std::get<1>(info.param);
    });

// --------------------------------------------------------------------
// Checkpoint under N threads, restore under M
// --------------------------------------------------------------------

/** Build the canonical 4-channel mixed system without running it. */
std::unique_ptr<harness::MultiChannelSystem>
makeCkptSystem(unsigned threads)
{
    harness::MultiChannelConfig cfg;
    cfg.channels = 4;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    cfg.simThreads = threads;

    auto sys = std::make_unique<harness::MultiChannelSystem>(cfg);
    GenConfig gc;
    gc.windowSize = 1ULL << 22;
    gc.minITT = fromNs(3.0);
    gc.maxITT = fromNs(9.0);
    gc.numRequests = 400;
    gc.readPct = 50;
    for (unsigned i = 0; i < 4; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, 4,
                                              sys->totalCapacity());
        g.seed = 21 + i;
        sys->addGen<RandomGen>(g);
    }
    return sys;
}

std::string
finalStats(harness::MultiChannelSystem &sys)
{
    std::ostringstream os;
    sys.sim().dumpStatsJson(os);
    return os.str();
}

TEST(ShardCkpt, SaveUnderNRestoreUnderMMatchesUninterrupted)
{
    // Reference: uninterrupted run (sequential).
    auto ref = makeCkptSystem(1);
    Tick ref_end = ref->runToCompletion();
    std::string want = finalStats(*ref);

    struct ThreadPair
    {
        unsigned saveThreads, restoreThreads;
    };
    for (ThreadPair tp : {ThreadPair{2, 1}, ThreadPair{1, 8},
                          ThreadPair{8, 2}}) {
        auto pre = makeCkptSystem(tp.saveThreads);
        // Stop mid-flight at an absolute poll boundary — the same
        // horizon sequence runToCompletion() uses — so the resumed
        // run sees identical window boundaries.
        harness::runUntil(
            pre->sim(), [] { return false; }, fromUs(1.0),
            fromUs(3.0));
        ASSERT_FALSE(pre->drained());
        std::string snapshot = ckpt::saveToString(pre->sim());

        auto post = makeCkptSystem(tp.restoreThreads);
        ckpt::restoreFromString(post->sim(), snapshot);
        Tick end = post->runToCompletion();

        EXPECT_EQ(end, ref_end)
            << "save@" << tp.saveThreads << " restore@"
            << tp.restoreThreads;
        EXPECT_EQ(finalStats(*post), want)
            << "save@" << tp.saveThreads << " restore@"
            << tp.restoreThreads;
    }
}

TEST(ShardCkpt, ShardCountMismatchIsFatal)
{
    auto pre = makeCkptSystem(1);
    harness::runUntil(
        pre->sim(), [] { return false; }, fromUs(1.0), fromUs(1.0));
    std::string snapshot = ckpt::saveToString(pre->sim());

    harness::MultiChannelConfig cfg;
    cfg.channels = 2;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    harness::MultiChannelSystem other(cfg);
    setThrowOnError(true);
    EXPECT_THROW(ckpt::restoreFromString(other.sim(), snapshot),
                 std::runtime_error);
    setThrowOnError(false);
}

/**
 * Stats JSON and merged command log of system preset @p preset (one
 * random generator per channel, 12800 requests in all) advanced to
 * 2.5 us in @p step-long run() calls, at @p threads sim-threads.
 */
SysResult
runPresetChunked(const std::string &preset, Tick step, unsigned threads)
{
    harness::MultiChannelConfig cfg = harness::systemPresetByName(preset);
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    cfg.simThreads = threads;
    harness::MultiChannelSystem sys(cfg);
    auto &loggers = sys.attachCmdLoggers();
    harness::Stimulus s;
    s.readPct = 50;
    s.requests = 12800;
    sys.addStimulus(s);

    const Tick horizon = fromUs(2.5);
    for (Tick t = step; t < horizon; t += step)
        sys.sim().run(t);
    SysResult r;
    r.finalTick = sys.sim().run(horizon);
    std::ostringstream os;
    sys.sim().dumpStatsJson(os);
    r.statsJson = os.str();
    r.cmdLog = mergedCmdLog(loggers);
    return r;
}

class ShardHorizon : public testing::TestWithParam<std::string>
{
};

TEST_P(ShardHorizon, ChunkedRunsMatchOneRun)
{
    const SysResult ref = runPresetChunked(GetParam(), fromUs(2.5), 1);
    for (double step_ns : {1000.0, 770.0, 333.3}) {
        for (unsigned threads : {1u, 4u}) {
            SysResult r =
                runPresetChunked(GetParam(), fromNs(step_ns), threads);
            EXPECT_EQ(r.finalTick, ref.finalTick);
            EXPECT_EQ(r.statsJson, ref.statsJson)
                << step_ns << " ns steps, " << threads << " threads";
            EXPECT_EQ(r.cmdLog, ref.cmdLog)
                << step_ns << " ns steps, " << threads << " threads";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    SystemPresets, ShardHorizon,
    testing::ValuesIn(harness::systemPresetNames()),
    [](const testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

TEST(ShardSystem, SingleChannelUnshardedStillWorks)
{
    SysResult r = runSystem(1, 1, "random", 200);
    EXPECT_GT(r.finalTick, 0u);
    EXPECT_FALSE(r.cmdLog.empty());
}

TEST(ShardSystem, RequestsCompleteAndStatsAddUp)
{
    harness::MultiChannelConfig cfg;
    cfg.channels = 4;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.ctrl.writeLowThreshold = 0.0;
    cfg.ctrl.check();
    cfg.simThreads = 2;

    harness::MultiChannelSystem sys(cfg);
    GenConfig gc;
    gc.windowSize = 1ULL << 20;
    gc.numRequests = 150;
    gc.readPct = 100;
    for (unsigned i = 0; i < 4; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, 4,
                                              sys.totalCapacity());
        g.seed = 11 + i;
        sys.addGen<RandomGen>(g);
    }
    sys.runToCompletion();

    for (unsigned i = 0; i < sys.numGens(); ++i) {
        EXPECT_TRUE(sys.gen(i).done());
        EXPECT_EQ(sys.gen(i).genStats().recvResponses.value(), 150.0);
    }
    EXPECT_TRUE(sys.xbar().idle());
    EXPECT_GT(sys.avgReadLatencyNs(), 0.0);
    // Random addresses interleave over all four channels; every
    // controller must have seen traffic.
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch)
        EXPECT_GT(sys.ctrl(ch).achievedBandwidthGBs(), 0.0);
}

/**
 * Cross-shard messages of a two-channel system (two shards) whose one
 * generator, on channel 0's shard, sends every request to channel
 * @p ch: the interleave step is a whole channel.
 */
std::uint64_t
messagesToChannel(unsigned ch)
{
    harness::MultiChannelConfig cfg;
    cfg.channels = 2;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.interleaveGranularity = cfg.ctrl.org.channelCapacity;
    harness::MultiChannelSystem sys(cfg);
    GenConfig gc;
    gc.startAddr = ch * cfg.ctrl.org.channelCapacity;
    gc.windowSize = 1ULL << 20;
    gc.numRequests = 100;
    sys.addGen<RandomGen>(gc);
    sys.runToCompletion();
    EXPECT_TRUE(sys.gen(0).done());
    EXPECT_GT(sys.ctrl(ch).achievedBandwidthGBs(), 0.0);
    EXPECT_EQ(sys.ctrl(1 - ch).achievedBandwidthGBs(), 0.0);
    return sys.sim().shardEngine().numMessages();
}

TEST(ShardSystem, OnlyCrossShardMessagesAreCounted)
{
    // Same shard: the crossbar delivers without the engine.
    EXPECT_EQ(messagesToChannel(0), 0u);
    // Other shard: at least each request and each response crosses.
    EXPECT_GE(messagesToChannel(1), 200u);
}

// --------------------------------------------------------------------
// The closed loop on the sharded memory side
// --------------------------------------------------------------------

/**
 * Four canneal cores in front of four ddr3_1600 channels, run to
 * completion at @p threads; every channel's commands must pass the
 * protocol checker.
 */
SysResult
runClosedLoop(unsigned threads)
{
    harness::MultiCoreConfig cfg;
    cfg.numCores = 4;
    cfg.channels = 4;
    cfg.ctrl = presets::byName("ddr3_1600");
    cfg.opsPerCore = 10000;
    cfg.seed = 5;
    harness::MultiCoreSystem sys(cfg, workloads::canneal());
    EXPECT_EQ(sys.sim().numShards(), 4u);
    sys.sim().setSimThreads(threads);
    auto &loggers = sys.mem().attachCmdLoggers();

    SysResult r;
    r.finalTick = sys.runToCompletion();
    for (unsigned i = 0; i < cfg.numCores; ++i)
        EXPECT_TRUE(sys.core(i).done()) << "core " << i;
    std::ostringstream os;
    sys.sim().dumpStatsJson(os);
    r.statsJson = os.str();
    r.cmdLog = mergedCmdLog(loggers);
    for (unsigned ch = 0; ch < loggers.size(); ++ch) {
        ProtocolChecker checker(cfg.ctrl.org, cfg.ctrl.timing);
        EXPECT_FALSE(loggers[ch].log().empty()) << "channel " << ch;
        EXPECT_TRUE(checker.check(loggers[ch].log()).empty())
            << "channel " << ch;
    }
    return r;
}

TEST(ClosedLoopShard, SameStatsAtOneAndFourThreads)
{
    SysResult one = runClosedLoop(1);
    SysResult four = runClosedLoop(4);
    EXPECT_EQ(one.finalTick, four.finalTick);
    EXPECT_EQ(one.statsJson, four.statsJson);
    EXPECT_EQ(one.cmdLog, four.cmdLog);
}

} // namespace
} // namespace dramctrl
