/**
 * @file
 * Tests for the binary (.dtrc) trace pipeline: format round trips
 * (including a property fuzz over random streams), structural and CRC
 * corruption detection, mmap-vs-read backend equivalence, source
 * filtering, and the headline guarantee — capturing a live run and
 * replaying the file reproduces the controller's statistics
 * byte-identically.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

#include "dram/dram_presets.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "trafficgen/trace.hh"
#include "trafficgen/trace_file.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

class DtrcFileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = std::filesystem::temp_directory_path() /
                ("dramctrl_dtrc_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name());
        path_ = base_.string() + ".dtrc";
    }

    void
    TearDown() override
    {
        std::filesystem::remove(path_);
        std::filesystem::remove(base_.string() + ".txt");
        std::filesystem::remove(base_.string() + "2.dtrc");
    }

    /** Flip one byte at @p off in path_. */
    void
    corruptByte(std::size_t off)
    {
        std::fstream f(path_, std::ios::in | std::ios::out |
                                  std::ios::binary);
        ASSERT_TRUE(f.good());
        f.seekg(static_cast<std::streamoff>(off));
        char c = 0;
        f.read(&c, 1);
        c ^= 0x5a;
        f.seekp(static_cast<std::streamoff>(off));
        f.write(&c, 1);
    }

    std::filesystem::path base_;
    std::string path_;
};

/** DDR3-1333 with full write drain, so every run terminates. */
DRAMCtrlConfig
drainingConfig()
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0;
    return cfg;
}

std::vector<TraceEntry>
randomStream(std::uint64_t seed, std::size_t n)
{
    Random rng(seed);
    std::vector<TraceEntry> entries;
    Tick tick = 0;
    for (std::size_t i = 0; i < n; ++i) {
        tick += rng.uniform(0, 10000); // zero gaps included
        TraceEntry e;
        e.tick = tick;
        e.isRead = (rng.next() & 1) != 0;
        e.addr = rng.uniform(0, kMaxTraceAddr) & ~63ULL;
        e.size = static_cast<unsigned>(1u << rng.uniform(4, 9));
        entries.push_back(e);
    }
    return entries;
}

TEST_F(DtrcFileTest, RoundTrip)
{
    auto entries = randomStream(7, 500);
    saveTraceDtrc(path_, entries);
    EXPECT_EQ(loadTraceDtrc(path_), entries);
    EXPECT_EQ(loadTraceAuto(path_), entries);
}

TEST_F(DtrcFileTest, EmptyTraceRoundTrips)
{
    saveTraceDtrc(path_, {});
    EXPECT_TRUE(loadTraceDtrc(path_).empty());
    TraceReader reader(path_);
    EXPECT_EQ(reader.info().recordCount, 0u);
    EXPECT_EQ(reader.info().numSources, 1u);
}

TEST_F(DtrcFileTest, TextBinaryRoundTripProperty)
{
    // Property fuzz: for several seeds, text -> dtrc -> entries and
    // dtrc -> entries agree with the original stream exactly.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        auto entries = randomStream(seed, 200);
        std::string txt = base_.string() + ".txt";
        saveTrace(txt, entries);
        auto from_text = loadTrace(txt);
        ASSERT_EQ(from_text, entries) << "seed " << seed;
        saveTraceDtrc(path_, from_text);
        ASSERT_EQ(loadTraceDtrc(path_), entries) << "seed " << seed;
    }
}

TEST_F(DtrcFileTest, FormatSniffing)
{
    saveTraceDtrc(path_, randomStream(3, 10));
    EXPECT_EQ(traceFormatOf(path_), TraceFormat::Dtrc);
    std::string txt = base_.string() + ".txt";
    saveTrace(txt, randomStream(3, 10));
    EXPECT_EQ(traceFormatOf(txt), TraceFormat::Text);
    EXPECT_EQ(traceFormatForOutput("x.txt"), TraceFormat::Text);
    EXPECT_EQ(traceFormatForOutput("x.dtrc"), TraceFormat::Dtrc);
    EXPECT_EQ(traceFormatForOutput("x"), TraceFormat::Dtrc);
}

TEST_F(DtrcFileTest, TruncatedFileIsFatal)
{
    saveTraceDtrc(path_, randomStream(5, 100));
    auto size = std::filesystem::file_size(path_);
    std::filesystem::resize_file(path_, size - 7);
    setThrowOnError(true);
    EXPECT_THROW(TraceReader r(path_), std::runtime_error);
    setThrowOnError(false);
}

TEST_F(DtrcFileTest, BadMagicIsFatal)
{
    saveTraceDtrc(path_, randomStream(5, 10));
    corruptByte(0);
    setThrowOnError(true);
    EXPECT_THROW(TraceReader r(path_), std::runtime_error);
    setThrowOnError(false);
}

TEST_F(DtrcFileTest, CorruptedRecordFailsCrc)
{
    saveTraceDtrc(path_, randomStream(5, 100));
    corruptByte(kTraceHeaderSize + 3 * kTraceRecordSize + 1);
    setThrowOnError(true);
    EXPECT_THROW(TraceReader r(path_), std::runtime_error);
    // Skipping verification must still open it (structure is intact).
    EXPECT_NO_THROW(TraceReader r2(path_, /*verify_crc=*/false));
    setThrowOnError(false);
}

TEST_F(DtrcFileTest, CountMismatchIsFatal)
{
    saveTraceDtrc(path_, randomStream(5, 100));
    corruptByte(16); // header recordCount, low byte
    setThrowOnError(true);
    EXPECT_THROW(TraceReader r(path_), std::runtime_error);
    setThrowOnError(false);
}

TEST_F(DtrcFileTest, WriterRejectsBackwardsTick)
{
    setThrowOnError(true);
    TraceWriter writer(path_);
    writer.append(TraceEntry{1000, true, 0x40, 64});
    EXPECT_THROW(writer.append(TraceEntry{999, true, 0x40, 64}),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST_F(DtrcFileTest, WriterRejectsOversizeFields)
{
    setThrowOnError(true);
    {
        TraceWriter writer(path_);
        EXPECT_THROW(writer.append(
                         TraceEntry{0, true, kMaxTraceAddr + 1, 64}),
                     std::runtime_error);
        EXPECT_THROW(
            writer.append(TraceEntry{0, true, 0x40,
                                     kMaxTraceReqSize + 1}),
            std::runtime_error);
        EXPECT_THROW(writer.append(TraceEntry{0, true, 0x40, 64},
                                   kMaxTraceSources),
                     std::runtime_error);
    }
    setThrowOnError(false);
}

TEST_F(DtrcFileTest, MultiSourceFiltering)
{
    // Interleave three sources; each filtered view sees only its own
    // entries, and the unfiltered view sees all of them in order.
    {
        TraceWriter writer(path_);
        for (unsigned i = 0; i < 30; ++i)
            writer.append(TraceEntry{Tick(i) * 100, true,
                                     Addr(i) * 64, 64},
                          i % 3);
        writer.finish();
    }
    TraceReader probe(path_, false);
    EXPECT_EQ(probe.info().numSources, 3u);

    DtrcTraceSource all(path_);
    std::size_t n = 0;
    TraceEntry e;
    while (all.peek(e)) {
        all.advance();
        ++n;
    }
    EXPECT_EQ(n, 30u);

    for (int s = 0; s < 3; ++s) {
        DtrcTraceSource src(path_, s);
        n = 0;
        while (src.peek(e)) {
            src.advance();
            EXPECT_EQ(e.addr % (3 * 64), static_cast<Addr>(s) * 64);
            ++n;
        }
        EXPECT_EQ(n, 10u) << "source " << s;
    }
}

TEST_F(DtrcFileTest, SourceSeekRepositions)
{
    auto entries = randomStream(13, 100);
    saveTraceDtrc(path_, entries);
    DtrcTraceSource src(path_);
    TraceEntry e;
    for (int i = 0; i < 40; ++i) {
        ASSERT_TRUE(src.peek(e));
        src.advance();
    }
    src.seek(7);
    ASSERT_TRUE(src.peek(e));
    EXPECT_EQ(e, entries[7]);
    EXPECT_EQ(src.position(), 7u);
    src.seek(99);
    ASSERT_TRUE(src.peek(e));
    EXPECT_EQ(e, entries[99]);
    src.advance();
    EXPECT_FALSE(src.peek(e));
}

TEST_F(DtrcFileTest, LiveCaptureFlagDisablesSlip)
{
    {
        TraceWriter writer(path_, kTicksPerSecond,
                           kTraceFlagLiveCapture);
        writer.append(TraceEntry{0, true, 0x40, 64});
        writer.finish();
    }
    TraceReader reader(path_);
    EXPECT_EQ(reader.info().flags & kTraceFlagLiveCapture,
              kTraceFlagLiveCapture);
    TracePlayerConfig live = makeTracePlayerConfig(path_);
    EXPECT_FALSE(live.slipOnStall);

    saveTraceDtrc(path_, randomStream(3, 5)); // plain intent schedule
    TracePlayerConfig intent = makeTracePlayerConfig(path_);
    EXPECT_TRUE(intent.slipOnStall);
}

/** Dump one stats group as its canonical JSON string. */
std::string
statsJson(const stats::Group &g)
{
    std::ostringstream os;
    g.dumpJson(os);
    return os.str();
}

TEST_F(DtrcFileTest, CaptureThenReplayReproducesCtrlStats)
{
    // A saturating random stream (short ITT) guarantees backpressure,
    // the hard case: replay must meet the same refusals and retries
    // to reproduce the queueing statistics exactly.
    DRAMCtrlConfig cfg = drainingConfig();
    std::string captured;
    {
        harness::SingleChannelSystem tb(cfg,
                                        harness::CtrlModel::Event);
        tb.enableCapture(path_);
        GenConfig gc;
        gc.numRequests = 400;
        gc.minITT = gc.maxITT = fromNs(1.0);
        gc.readPct = 70;
        gc.seed = 5;
        gc.windowSize = 1ULL << 20;
        auto &gen = tb.addGen<RandomGen>(gc);
        tb.runToCompletion([&] { return gen.done(); });
        tb.finishCapture();
        captured = statsJson(tb.ctrl().statGroup());
    }
    {
        harness::SingleChannelSystem tb(cfg,
                                        harness::CtrlModel::Event);
        auto &player =
            tb.addGen<TracePlayer>(makeTracePlayerConfig(path_));
        tb.runToCompletion([&] { return player.done(); });
        EXPECT_EQ(player.injected(), 400u);
        EXPECT_EQ(statsJson(tb.ctrl().statGroup()), captured);
    }
}

TEST_F(DtrcFileTest, MultiChannelCaptureReplaysAtAnyWidth)
{
    harness::MultiChannelConfig mcfg;
    mcfg.channels = 2;
    mcfg.ctrl = drainingConfig();

    std::vector<std::string> captured;
    {
        harness::MultiChannelSystem mc(mcfg);
        mc.enableCapture(path_);
        GenConfig gc;
        gc.numRequests = 150;
        gc.minITT = gc.maxITT = fromNs(2.0);
        gc.seed = 9;
        gc.windowSize = 1ULL << 20;
        for (unsigned i = 0; i < 2; ++i)
            mc.addGen<RandomGen>(harness::sliceGenWindow(
                gc, i, 2, mc.totalCapacity()));
        mc.runToCompletion();
        mc.finishCapture();
        for (unsigned ch = 0; ch < 2; ++ch)
            captured.push_back(statsJson(mc.ctrl(ch).statGroup()));
    }
    TraceReader probe(path_, false);
    EXPECT_EQ(probe.info().numSources, 2u);

    for (unsigned threads : {1u, 2u}) {
        harness::MultiChannelConfig rcfg = mcfg;
        rcfg.simThreads = threads;
        harness::MultiChannelSystem mc(rcfg);
        harness::Stimulus stim;
        stim.pattern = "trace";
        stim.tracePath = path_;
        mc.addStimulus(stim);
        EXPECT_EQ(mc.numPlayers(), 2u);
        mc.runToCompletion();
        for (unsigned ch = 0; ch < 2; ++ch)
            EXPECT_EQ(statsJson(mc.ctrl(ch).statGroup()),
                      captured[ch])
                << "channel " << ch << " at " << threads
                << " sim-threads";
    }
}

TEST_F(DtrcFileTest, StreamedCaptureMatchesBufferedText)
{
    // The .dtrc sink streams during the run; a .txt capture buffers
    // and writes at finish. Same run, same entries.
    DRAMCtrlConfig cfg = drainingConfig();
    auto run = [&](const std::string &out) {
        harness::SingleChannelSystem tb(cfg,
                                        harness::CtrlModel::Event);
        tb.enableCapture(out);
        GenConfig gc;
        gc.numRequests = 100;
        gc.seed = 21;
        gc.windowSize = 1ULL << 20;
        auto &gen = tb.addGen<LinearGen>(gc);
        tb.runToCompletion([&] { return gen.done(); });
        tb.finishCapture();
    };
    std::string txt = base_.string() + ".txt";
    run(path_);
    run(txt);
    EXPECT_EQ(loadTraceDtrc(path_), loadTrace(txt));
}

} // namespace
} // namespace dramctrl
