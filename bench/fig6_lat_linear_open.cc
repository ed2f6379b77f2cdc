/**
 * @file
 * Experiment E4 — paper Figure 6: read latency distribution for
 * read-only linear traffic under an open-page policy, measured at the
 * traffic generator (so all queueing and serialisation is included).
 *
 * Expected shape: both models produce similar unimodal distributions.
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
        "fig6_lat_linear_open: read latency distribution, linear "
        "reads, open page",
        "Figure 6 (Section III-C2)");

    PointConfig pc;
    pc.page = PagePolicy::Open;
    pc.mapping = AddrMapping::RoRaBaCoCh;
    pc.readPct = 100;
    pc.numRequests = 20000;
    pc.itt = fromNs(12); // moderate load: queues form but stay finite

    pc.model = harness::CtrlModel::Event;
    PointResult ev = runLinearPoint(pc);
    pc.model = harness::CtrlModel::Cycle;
    PointResult cy = runLinearPoint(pc);

    printDistribution("event model", ev);
    printDistribution("cycle model", cy);

    std::printf("\nsummary: event mean %.1f ns vs cycle mean %.1f ns "
                "(diff %.1f%%)\n",
                ev.avgReadLatencyNs, cy.avgReadLatencyNs,
                100.0 * (ev.avgReadLatencyNs - cy.avgReadLatencyNs) /
                    cy.avgReadLatencyNs);
    return 0;
}
