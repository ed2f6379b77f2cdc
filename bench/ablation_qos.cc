/**
 * @file
 * Ablation — the FR-FCFS QoS scheduler extension (Section II-C says
 * the model is "a framework in which more elaborate schedulers can be
 * evaluated"; this evaluates one).
 *
 * Two identical random-read generators share one DDR3 channel at
 * increasing load. With plain FR-FCFS they split the pain evenly;
 * with priorities, requestor 1's latency stays near the unloaded
 * value while requestor 0 absorbs the queueing.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hh"
#include "xbar/xbar.hh"

using namespace dramctrl;
using namespace dramctrl::bench;

namespace {

/** (latency gen0, latency gen1) for one policy and load. */
std::pair<double, double>
run(bool with_qos, Tick itt)
{
    Simulator sim;
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.timing.tREFI = 0;
    if (with_qos) {
        cfg.schedPolicy = SchedPolicy::FrFcfsPrio;
        cfg.requestorPriorities = {0, 10};
    }
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    Crossbar xbar(sim, "xbar", XBarConfig{});
    xbar.addChannel(ctrl.port(), AddrRange(0, cfg.org.channelCapacity));

    std::vector<std::unique_ptr<RandomGen>> gens;
    for (unsigned g = 0; g < 2; ++g) {
        GenConfig gc;
        gc.startAddr = g * (128ULL << 20);
        gc.windowSize = 128ULL << 20;
        gc.readPct = 100;
        gc.minITT = gc.maxITT = itt;
        gc.numRequests = 5000;
        gc.seed = 500 + g;
        gens.push_back(std::make_unique<RandomGen>(
            sim, "gen" + std::to_string(g), gc,
            static_cast<RequestorId>(g)));
        gens.back()->port().bind(
            xbar.addFrontPort({static_cast<RequestorId>(g)}));
    }
    harness::runUntil(sim, [&] {
        return gens[0]->done() && gens[1]->done();
    });
    return {gens[0]->avgReadLatencyNs(), gens[1]->avgReadLatencyNs()};
}

} // namespace

int
main()
{
    setQuiet(true);
    printHeader("ablation_qos: priority-aware FR-FCFS",
                "extension of Section II-C (scheduler framework)");

    std::printf("two random-read requestors share one channel; "
                "requestor 1 is prioritised\n\n");
    std::printf("%10s | %12s %12s | %12s %12s\n", "itt ns",
                "fair r0", "fair r1", "qos r0", "qos r1");

    for (double itt_ns : {30.0, 15.0, 10.0, 8.0, 6.0}) {
        auto [fair0, fair1] = run(false, fromNs(itt_ns));
        auto [qos0, qos1] = run(true, fromNs(itt_ns));
        std::printf("%10.0f | %12.1f %12.1f | %12.1f %12.1f\n",
                    itt_ns, fair0, fair1, qos0, qos1);
    }

    std::printf("\nexpected: under load the prioritised requestor "
                "keeps near-unloaded latency while\nthe best-effort "
                "one absorbs the queueing; fair FR-FCFS splits "
                "latency evenly.\n");
    return 0;
}
