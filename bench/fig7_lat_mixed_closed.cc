/**
 * @file
 * Experiment E5 — paper Figure 7: read latency distribution for mixed
 * (1:1) linear traffic under a closed-page policy.
 *
 * Expected shape: the event model is **bimodal** — reads arriving
 * while the write queue drains wait out the drain episode, reads
 * arriving otherwise are serviced immediately. The cycle model
 * services reads and writes in arrival order and stays unimodal
 * (Section III-C2).
 */

#include <cstdio>

#include "bench_util.hh"

using namespace dramctrl;
using namespace dramctrl::bench;

int
main()
{
    setQuiet(true);
    printHeader(
        "fig7_lat_mixed_closed: read latency distribution, 1:1 linear "
        "mix, closed page",
        "Figure 7 (Section III-C2)");

    PointConfig pc;
    pc.page = PagePolicy::Closed;
    pc.mapping = AddrMapping::RoCoRaBaCh;
    pc.readPct = 50;
    pc.numRequests = 20000;
    pc.itt = fromNs(12);

    pc.model = harness::CtrlModel::Event;
    PointResult ev = runLinearPoint(pc);
    pc.model = harness::CtrlModel::Cycle;
    PointResult cy = runLinearPoint(pc);

    printDistribution("event model (expect bimodal)", ev);
    printDistribution("cycle model (expect unimodal)", cy);

    std::printf("\nsummary: event modes %u (bimodal: %s), cycle modes "
                "%u; mean diff %.1f%%\n",
                ev.latencyModes, ev.latencyModes >= 2 ? "yes" : "NO",
                cy.latencyModes,
                100.0 * (ev.avgReadLatencyNs - cy.avgReadLatencyNs) /
                    cy.avgReadLatencyNs);
    return 0;
}
