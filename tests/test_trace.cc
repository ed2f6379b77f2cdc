/**
 * @file
 * Tests for trace recording and replay: file round trips, transparent
 * interposition, replay fidelity, and the latency-feedback gap between
 * live and replayed streams the paper warns about (Section I).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "dram/dram_ctrl.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/trace.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

class TraceFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = std::filesystem::temp_directory_path() /
                ("dramctrl_trace_" +
                 std::to_string(::getpid()) + ".txt");
    }

    void TearDown() override { std::filesystem::remove(path_); }

    std::filesystem::path path_;
};

TEST_F(TraceFileTest, SaveLoadRoundTrip)
{
    std::vector<TraceEntry> entries = {
        {1000, true, 0x40, 64},
        {2500, false, 0x1000, 32},
        {9999, true, 0xdeadbeef, 128},
    };
    saveTrace(path_.string(), entries);
    auto loaded = loadTrace(path_.string());
    EXPECT_EQ(loaded, entries);
}

TEST_F(TraceFileTest, CommentsAndBlanksIgnored)
{
    {
        std::ofstream out(path_);
        out << "# a comment line\n\n";
        out << "100 r 0x40 64 # trailing comment\n";
        out << "200 w 0x80 64\n";
    }
    auto loaded = loadTrace(path_.string());
    ASSERT_EQ(loaded.size(), 2u);
    EXPECT_TRUE(loaded[0].isRead);
    EXPECT_FALSE(loaded[1].isRead);
    EXPECT_EQ(loaded[0].addr, 0x40u);
}

TEST_F(TraceFileTest, MalformedLineIsFatal)
{
    setThrowOnError(true);
    {
        std::ofstream out(path_);
        out << "100 x 0x40 64\n";
    }
    EXPECT_THROW(loadTrace(path_.string()), std::runtime_error);
    setThrowOnError(false);
}

TEST_F(TraceFileTest, MissingFileIsFatal)
{
    setThrowOnError(true);
    EXPECT_THROW(loadTrace("/nonexistent/file.txt"),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(TraceRecorderTest, RecordsWhileForwardingTransparently)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    TraceRecorder rec(sim, "rec");
    testutil::TestRequestor req(sim, "req");

    req.port().bind(rec.cpuSidePort());
    rec.memSidePort().bind(ctrl.port());

    auto a = req.inject(0, MemCmd::ReadReq, 0x0);
    auto b = req.inject(fromNs(100), MemCmd::WriteReq, 0x40);
    sim.run(fromUs(10));

    EXPECT_TRUE(req.allResponded());
    (void)a;
    (void)b;
    ASSERT_EQ(rec.trace().size(), 2u);
    EXPECT_TRUE(rec.trace()[0].isRead);
    EXPECT_EQ(rec.trace()[0].tick, 0u);
    EXPECT_FALSE(rec.trace()[1].isRead);
    EXPECT_EQ(rec.trace()[1].addr, 0x40u);
    // Transparent: the read still saw the bare DRAM latency.
    EXPECT_EQ(req.responseTick(a), fromNs(13.75 + 13.75 + 6));
}

TEST(TracePlayerTest, ReplaysAtRecordedTicks)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));

    std::vector<TraceEntry> trace = {
        {0, true, 0x0, 64},
        {fromNs(100), true, 0x40, 64},
        {fromNs(200), false, 0x80, 64},
    };
    TracePlayer player(sim, "player", trace, 0);
    player.port().bind(ctrl.port());

    harness::runUntil(sim, [&] { return player.done(); });
    EXPECT_TRUE(player.done());
    EXPECT_EQ(player.injected(), 3u);
    EXPECT_EQ(player.responses(), 3u);
    EXPECT_GT(player.avgReadLatencyNs(), 0.0);
}

TEST(TracePlayerTest, TimeScaleStretchesReplay)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));

    std::vector<TraceEntry> trace = {{fromNs(100), true, 0x0, 64}};
    TracePlayer player(sim, "player", trace, 0, 4.0);
    player.port().bind(ctrl.port());
    harness::runUntil(sim, [&] { return player.done(); });
    // Scaled 4x: injection at 400 ns, response after the DRAM time.
    EXPECT_GE(sim.curTick(), fromNs(400));
}

/**
 * Refuses the first @p refusals requests it sees, sending a retry
 * 10 ns after each refusal; takes (and drops) every write after that.
 */
class RefusingMemory : public SimObject
{
  public:
    RefusingMemory(Simulator &sim, unsigned refusals)
        : SimObject(sim, "mem"), refusals_(refusals), port_(*this),
          retryEvent_([this] { port_.sendReqRetry(); },
                      "mem.retryEvent")
    {}

    ResponsePort &port() { return port_; }

    /** Tick of every request attempt, refused or not. */
    std::vector<Tick> attempts;

  private:
    class Port : public ResponsePort
    {
      public:
        explicit Port(RefusingMemory &mem)
            : ResponsePort("mem.port"), mem_(mem)
        {}

        bool
        recvTimingReq(Packet *pkt) override
        {
            mem_.attempts.push_back(mem_.curTick());
            if (mem_.refusals_ > 0) {
                --mem_.refusals_;
                mem_.schedule(mem_.retryEvent_,
                              mem_.curTick() + fromNs(10.0));
                return false;
            }
            delete pkt;
            return true;
        }

        void recvRespRetry() override {}

      private:
        RefusingMemory &mem_;
    };

    unsigned refusals_;
    Port port_;
    EventFunctionWrapper retryEvent_;
};

TEST(TracePlayerTest, OneStallSlipsTheScheduleOnce)
{
    // The first write is refused at 100 ns and again on the retry at
    // 110 ns, then taken at 120 ns: the stall is 20 ns, so the second
    // write, meant for 200 ns, goes at 220 ns.
    Simulator sim;
    RefusingMemory mem(sim, 2);
    std::vector<TraceEntry> trace = {
        {fromNs(100), false, 0x0, 64},
        {fromNs(200), false, 0x40, 64},
    };
    TracePlayer player(sim, "player", trace, 0);
    player.port().bind(mem.port());
    harness::runUntil(sim, [&] { return player.done(); });

    EXPECT_EQ(mem.attempts,
              (std::vector<Tick>{fromNs(100), fromNs(110), fromNs(120),
                                 fromNs(220)}));
}

TEST(TracePlayerTest, RecordThenReplayReproducesStream)
{
    // Record a live generator run, then replay the trace into an
    // identical system; the controller must see the same requests.
    auto run_live = [](std::vector<TraceEntry> &trace_out) {
        Simulator sim;
        DRAMCtrlConfig cfg = testutil::bareTimingConfig();
        DRAMCtrl ctrl(sim, "ctrl", cfg,
                      AddrRange(0, cfg.org.channelCapacity));
        TraceRecorder rec(sim, "rec");
        rec.memSidePort().bind(ctrl.port());

        GenConfig gc;
        gc.numRequests = 100;
        gc.minITT = gc.maxITT = fromNs(20);
        gc.readPct = 80;
        gc.seed = 3;
        LinearGen gen(sim, "gen", gc, 0);
        gen.port().bind(rec.cpuSidePort());

        harness::runUntil(sim, [&] { return gen.done(); });
        trace_out = rec.trace();
        return ctrl.ctrlStats().readReqs.value();
    };

    std::vector<TraceEntry> trace;
    double live_reads = run_live(trace);
    ASSERT_EQ(trace.size(), 100u);

    Simulator sim;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    TracePlayer player(sim, "player", trace, 0);
    player.port().bind(ctrl.port());
    harness::runUntil(sim, [&] { return player.done(); });

    EXPECT_EQ(ctrl.ctrlStats().readReqs.value(), live_reads);
    EXPECT_EQ(player.responses(), 100u);
}

} // namespace
} // namespace dramctrl
