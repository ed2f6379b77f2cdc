/**
 * @file
 * Ablation — the write-drain state machine (Section II-C).
 *
 * The paper's controller batches writes: a high watermark forces a
 * switch to writes, a minimum number drain per episode, and a low
 * watermark hands the bus back to reads. This benchmark sweeps the
 * knobs under mixed traffic to expose the trade-off the design
 * encodes: larger drain batches amortise the tWTR/tRTW bus
 * turnarounds (higher utilisation) at the price of longer
 * worst-case read latency (the Fig. 7 bimodality).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace dramctrl;
using namespace dramctrl::bench;

int
main()
{
    setQuiet(true);
    printHeader("ablation_write_drain: write-drain batching knobs",
                "design choice behind Sections II-C / III-C "
                "(write handling)");

    std::printf("mixed 1:1 linear traffic, open page; the high-low "
                "watermark gap sets the drain batch\n\n");
    std::printf("%12s %10s %12s %12s %12s\n", "high/low",
                "bus_util", "avg_rd_ns", "p95_rd_ns",
                "wr/episode");

    struct Knobs
    {
        double high;
        double low;
    };
    const Knobs sweep[] = {
        {0.10, 0.05}, // tiny batches: constant turnarounds
        {0.20, 0.10}, {0.40, 0.20}, {0.60, 0.30},
        {0.85, 0.50}, // the paper's ballpark
        {0.95, 0.30}, // huge batches
    };

    for (const Knobs &k : sweep) {
        PointConfig pc;
        pc.model = harness::CtrlModel::Event;
        pc.page = PagePolicy::Open;
        pc.mapping = AddrMapping::RoRaBaCoCh;
        pc.readPct = 50;
        pc.numRequests = 12000;
        pc.itt = fromNs(7);
        pc.tweak = [&](DRAMCtrlConfig &cfg) {
            cfg.writeHighThreshold = k.high;
            cfg.writeLowThreshold = k.low;
            cfg.minWritesPerSwitch = 1;
        };
        PointResult r = runLinearPoint(pc);
        std::printf("%7.2f/%.2f %9.1f%% %12.1f %12.0f %12.1f\n",
                    k.high, k.low, 100 * r.busUtil,
                    r.avgReadLatencyNs, r.p95ReadLatencyNs,
                    r.wrPerTurnaround);
    }

    std::printf("\nexpected: tiny drain batches pay a bus turnaround "
                "per few writes (lower utilisation,\nbut gentle read "
                "tail); big batches amortise turnarounds and stretch "
                "the read tail.\n");
    return 0;
}
