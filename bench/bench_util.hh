/**
 * @file
 * Shared plumbing for the experiment-reproduction benchmarks: run one
 * validation point (Section III test-case formulation) on either
 * controller model and collect the metrics the paper plots.
 */

#ifndef DRAMCTRL_BENCH_BENCH_UTIL_H
#define DRAMCTRL_BENCH_BENCH_UTIL_H

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>

#include "dram/dram_presets.hh"
#include "exec/thread_pool.hh"
#include "harness/testbench.hh"
#include "power/micron_power.hh"
#include "sim/logging.hh"
#include "stats/tick_histogram.hh"
#include "trafficgen/dram_gen.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"

namespace dramctrl {
namespace bench {

/** One Section III validation point. */
struct PointConfig
{
    harness::CtrlModel model = harness::CtrlModel::Event;
    PagePolicy page = PagePolicy::Open;
    /** Open page pairs with RoRaBaCoCh, closed with RoCoRaBaCh
     *  (Section III-B); set explicitly to override. */
    AddrMapping mapping = AddrMapping::RoRaBaCoCh;
    std::uint64_t strideBytes = 64;
    unsigned banks = 1;
    unsigned readPct = 100;
    std::uint64_t numRequests = 6000;
    /** Inject faster than the DRAM can serve to measure saturation. */
    Tick itt = fromNs(3);
    /** Queue-size overrides (0 keeps the preset's defaults). The
     *  paper matches queue sizes per experiment (Section III). */
    unsigned readBufferSize = 0;
    unsigned writeBufferSize = 0;
    /** Arbitrary final tweak of the controller configuration (used by
     *  the ablation benchmarks to sweep individual design choices). */
    std::function<void(DRAMCtrlConfig &)> tweak;
};

/** What one run produced. */
struct PointResult
{
    double busUtil = 0;
    double bandwidthGBs = 0;
    double avgReadLatencyNs = 0;
    double rowHitRate = 0;
    PowerInputs powerIn;
    DRAMCtrlConfig cfg;
    /** Read latency distribution on TickHistogram's quarter-octave
     *  grid: (lower edge in ns, samples), empty quarters left out. */
    std::vector<std::pair<double, std::uint64_t>> latencyBuckets;
    unsigned latencyModes = 0;
    double p95ReadLatencyNs = 0;
    /** Mean writes drained per write episode (event model only). */
    double wrPerTurnaround = 0;
};

/** Apply the point's controller-configuration overrides. */
inline void
applyOverrides(DRAMCtrlConfig &cfg, const PointConfig &pc)
{
    cfg.pagePolicy = pc.page;
    cfg.addrMapping = pc.mapping;
    if (pc.readBufferSize != 0)
        cfg.readBufferSize = pc.readBufferSize;
    if (pc.writeBufferSize != 0) {
        cfg.writeBufferSize = pc.writeBufferSize;
        cfg.minWritesPerSwitch =
            std::max(1u, std::min(cfg.minWritesPerSwitch,
                                  pc.writeBufferSize / 2));
    }
    if (pc.tweak)
        pc.tweak(cfg);
}

/**
 * Warm up for 5 us, reset the stats, run @p gen to completion and
 * collect the point's metrics from the measured window.
 */
inline PointResult
measurePoint(harness::SingleChannelSystem &tb, BaseGen &gen,
             const DRAMCtrlConfig &cfg, harness::CtrlModel model)
{
    tb.sim().run(fromUs(5));
    tb.sim().resetStats();
    tb.runToCompletion([&] { return gen.done(); }, fromUs(100000));

    PointResult r;
    r.cfg = cfg;
    r.busUtil = tb.ctrl().busUtilisation();
    r.bandwidthGBs = tb.ctrl().achievedBandwidthGBs();
    r.avgReadLatencyNs = gen.avgReadLatencyNs();
    r.powerIn = tb.ctrl().powerInputs();
    if (model == harness::CtrlModel::Event) {
        r.rowHitRate =
            tb.eventCtrl().ctrlStats().rowHitRate.value();
        r.wrPerTurnaround =
            tb.eventCtrl().ctrlStats().wrPerTurnAround.value();
    }

    const stats::TickHistogram &h = gen.genStats().readLatencyHist;
    for (unsigned q = 0; q < stats::TickHistogram::kNumQuarters; ++q) {
        if (std::uint64_t n = h.quarterCount(q))
            r.latencyBuckets.emplace_back(
                toNs(stats::TickHistogram::quarterLow(q)), n);
    }
    r.latencyModes = h.numModes();
    r.p95ReadLatencyNs = h.percentile(95);
    return r;
}

/** Print a point's read latency distribution, one bar per quarter. */
inline void
printDistribution(const char *label, const PointResult &r)
{
    std::printf("--- %s: mean %.1f ns, modes %u\n", label,
                r.avgReadLatencyNs, r.latencyModes);
    std::uint64_t total = 0;
    for (const auto &[lo, n] : r.latencyBuckets)
        total += n;
    for (const auto &[lo, n] : r.latencyBuckets) {
        double pct = 100.0 * static_cast<double>(n) /
                     static_cast<double>(total);
        std::printf("%8.1f ns %7.2f%% |", lo, pct);
        for (int i = 0; i < static_cast<int>(pct); ++i)
            std::printf("#");
        std::printf("\n");
    }
}

/** Run one validation point with the DRAM-aware generator. */
inline PointResult
runPoint(const PointConfig &pc)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0; // drain fully so runs terminate
    applyOverrides(cfg, pc);

    harness::SingleChannelSystem tb(cfg, pc.model);

    DramGenConfig gc;
    gc.org = cfg.org;
    gc.mapping = cfg.addrMapping;
    gc.strideBytes = pc.strideBytes;
    gc.numBanksTarget = pc.banks;
    gc.readPct = pc.readPct;
    gc.minITT = gc.maxITT = pc.itt;
    gc.numRequests = pc.numRequests;
    gc.seed = 12345;
    return measurePoint(tb, tb.addGen<DramGen>(gc), cfg, pc.model);
}

/** Same point but with a linear or random generator (latency runs). */
inline PointResult
runLinearPoint(const PointConfig &pc, bool random = false)
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    applyOverrides(cfg, pc);
    harness::SingleChannelSystem tb(cfg, pc.model);

    GenConfig gc;
    gc.windowSize = 1 << 22;
    gc.readPct = pc.readPct;
    gc.minITT = gc.maxITT = pc.itt;
    gc.numRequests = pc.numRequests;
    gc.seed = 12345;

    BaseGen &gen = random
        ? static_cast<BaseGen &>(tb.addGen<RandomGen>(gc))
        : tb.addGen<LinearGen>(gc);
    return measurePoint(tb, gen, cfg, pc.model);
}

/**
 * Pull `--jobs N` (0 = one per core) out of argv for benches whose
 * trials run on the batch engine. Defaults to 1: serial timing is
 * the paper-faithful measurement; parallel trials are for quick
 * shape checks. Output is identical either way.
 */
inline unsigned
parseJobs(int argc, char **argv, unsigned fallback = 1)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--jobs") == 0) {
            unsigned j = static_cast<unsigned>(
                std::stoul(argv[i + 1]));
            return j == 0 ? exec::ThreadPool::hardwareThreads() : j;
        }
    }
    return fallback;
}

inline void
printHeader(const char *title, const char *paper_item)
{
    std::printf("==============================================================\n");
    std::printf("%s\n", title);
    std::printf("reproduces: %s\n", paper_item);
    std::printf("==============================================================\n");
}

} // namespace bench
} // namespace dramctrl

#endif // DRAMCTRL_BENCH_BENCH_UTIL_H
