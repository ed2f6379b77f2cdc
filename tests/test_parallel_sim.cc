/**
 * @file
 * Concurrency tests for the shared-nothing simulation contract: many
 * whole Simulators running to completion on worker threads at once,
 * with identical results to serial execution, per-thread freelists
 * that take slots freed on other threads, and a logging registry that
 * survives queues being created and destroyed across threads. The
 * TSan CI job runs exactly these suites.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "exec/sweep.hh"
#include "harness/testbench.hh"
#include "sim/eventq.hh"
#include "sim/logging.hh"
#include "sim/pool.hh"
#include "trafficgen/random_gen.hh"

using namespace dramctrl;
using namespace dramctrl::exec;

namespace {

/** Simulated outcome of one small random-traffic run. */
struct RunResult
{
    Tick endTick = 0;
    double bandwidthGBs = 0;
    double avgReadLatencyNs = 0;

    bool
    operator==(const RunResult &o) const
    {
        return endTick == o.endTick &&
               bandwidthGBs == o.bandwidthGBs &&
               avgReadLatencyNs == o.avgReadLatencyNs;
    }
};

RunResult
runOne(std::uint64_t seed)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0; // drain fully so the run terminates
    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);

    GenConfig gc;
    gc.windowSize = 1 << 22;
    gc.readPct = 70;
    gc.minITT = gc.maxITT = fromNs(6);
    gc.numRequests = 2000;
    gc.seed = seed;
    auto &gen = tb.addGen<RandomGen>(gc);

    tb.runToCompletion([&] { return gen.done(); });

    RunResult r;
    r.endTick = tb.sim().curTick();
    r.bandwidthGBs = tb.ctrl().achievedBandwidthGBs();
    r.avgReadLatencyNs = gen.avgReadLatencyNs();
    return r;
}

std::vector<RunResult>
runBatch(unsigned jobs, std::size_t n)
{
    BatchRunner runner(jobs);
    std::vector<RunResult> results;
    runner.run<RunResult>(
        n, [](std::size_t i) { return runOne(deriveSeed(42, i)); },
        [&](const JobOutcome<RunResult> &out) {
            EXPECT_TRUE(out.ok) << "job " << out.index << ": "
                                << out.error;
            results.push_back(out.value);
        });
    return results;
}

} // namespace

TEST(ParallelSim, EightConcurrentSimulatorsMatchSerial)
{
    std::vector<RunResult> serial = runBatch(1, 8);
    std::vector<RunResult> parallel = runBatch(8, 8);
    ASSERT_EQ(serial.size(), 8u);
    ASSERT_EQ(parallel.size(), 8u);
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i], parallel[i]) << "job " << i;
        EXPECT_GT(serial[i].endTick, 0u);
    }
}

namespace {

std::string
runSweepBatch(unsigned jobs)
{
    SweepSpec spec;
    spec.presets = {"ddr3_1333", "lpddr3_1600"};
    spec.patterns = {"random", "dram"};
    spec.readPcts = {50, 100};
    spec.numSeeds = 2;
    spec.masterSeed = 3;
    spec.requests = 1200;

    std::string err;
    EXPECT_TRUE(checkSpec(spec, &err)) << err;
    std::vector<SweepPoint> grid = expandGrid(spec);
    EXPECT_EQ(grid.size(), 2u * 2u * 2u * 2u);

    BatchRunner runner(jobs);
    std::string csv = csvHeader() + "\n";
    runner.run<SweepRow>(
        grid.size(),
        [&](std::size_t i) { return runSweepPoint(grid[i], spec); },
        [&](const JobOutcome<SweepRow> &out) {
            EXPECT_TRUE(out.ok) << out.error;
            csv += toCsv(out.value) + "\n";
        });
    return csv;
}

} // namespace

TEST(ParallelSim, SweepOutputByteIdenticalAcrossWidths)
{
    std::string serial = runSweepBatch(1);
    EXPECT_EQ(serial, runSweepBatch(4));
}

TEST(ParallelSim, FreedSlotJoinsTheFreeingThreadsList)
{
    struct Blob : Pooled<Blob>
    {
        char payload[48];
    };

    // A slot made on a worker that then exits must outlive that
    // worker's freelist (ASan sees a use after free if not): freed
    // here, it joins this thread's list and is handed out again. A
    // second worker then frees it into its own list, which frees the
    // slot when that worker exits (LeakSanitizer sees it if not).
    Blob *blob = nullptr;
    std::thread([&] { blob = new Blob; }).join();
    void *slot = blob;
    blob->payload[0] = 1;
    delete blob;

    blob = new Blob;
    EXPECT_EQ(static_cast<void *>(blob), slot);
    blob->payload[0] = 2;
    std::thread([&] { delete blob; }).join();
}

TEST(ParallelSim, EventQueueRegistryHandlesChurnAcrossThreads)
{
    // Queues register as their thread's tick source on construction
    // and unregister on destruction; warn()'s tick prefix reads the
    // registry via activeSimTick(). The combination must survive
    // concurrent churn (TSan verifies the locking), and after a
    // queue dies the registry must not dereference it — the
    // dangling-pointer fix.
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([] {
            Tick tick = 0;
            for (int i = 0; i < 50; ++i) {
                EventQueue q;
                EXPECT_TRUE(activeSimTick(tick))
                    << "live queue must be this thread's tick "
                       "source";
                EXPECT_EQ(tick, q.curTick());
            }
            // All queues on this thread are gone: the prefix lookup
            // must see an empty registry, not a destroyed queue.
            EXPECT_FALSE(activeSimTick(tick));
        });
    }
    for (auto &t : threads)
        t.join();

    // The main thread never had a queue in this test, so its own
    // lookup is unaffected by the churn above.
    Tick tick = 0;
    EXPECT_FALSE(activeSimTick(tick));
}
