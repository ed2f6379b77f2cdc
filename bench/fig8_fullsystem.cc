/**
 * @file
 * Experiment E8 — paper Figure 8: full-system correlation between the
 * two controller models across PARSEC-like workloads, with a
 * DDR3 memory and a closed-page policy (Section IV-A).
 *
 * For each workload the same multi-core system (timing cores, private
 * L1s, shared L2) runs once per controller model; the figure's bars
 * are the cycle/event ratios of four metrics: simulated time to finish
 * the work, aggregate IPC, average L2 miss latency, and DRAM bus
 * utilisation. Ratios near 1.0 mean the fast model preserves
 * full-system fidelity. The paper also reports the event model
 * cutting *host* simulation time (~13% on average there; the gap here
 * depends on how much of the system is cores vs controller).
 */

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.hh"
#include "cpu/workload.hh"
#include "harness/multichannel.hh"

using namespace dramctrl;
using namespace dramctrl::bench;

namespace {

struct SystemResult
{
    double simSeconds;
    double ipc;
    double l2MissNs;
    double busUtil;
    double hostSeconds;
};

SystemResult
runSystem(harness::CtrlModel model, const WorkloadProfile &wl)
{
    harness::MultiCoreConfig cfg;
    cfg.numCores = 4;
    cfg.channels = 1;
    cfg.ctrl = presets::ddr3_1333();
    cfg.ctrl.pagePolicy = PagePolicy::Closed;
    cfg.ctrl.addrMapping = AddrMapping::RoCoRaBaCh;
    cfg.model = model;
    cfg.opsPerCore = 60000;
    cfg.seed = 9;

    harness::MultiCoreSystem sys(cfg, wl);
    auto t0 = std::chrono::steady_clock::now();
    Tick end = sys.runToCompletion(fromUs(1000000));
    auto t1 = std::chrono::steady_clock::now();

    SystemResult r;
    r.simSeconds = toSeconds(end);
    r.ipc = sys.aggregateIPC();
    r.l2MissNs = sys.l2MissLatencyNs();
    r.busUtil = sys.mem().avgBusUtil();
    r.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    return r;
}

} // namespace

int
main()
{
    setQuiet(true);
    printHeader("fig8_fullsystem: cycle/event metric ratios, "
                "PARSEC-like workloads",
                "Figure 8 (Section IV-A)");

    std::printf("%-14s %9s %8s %10s %9s %10s\n", "workload",
                "sim_time", "ipc", "l2miss", "bus_util", "host_time");
    std::printf("%-14s %9s %8s %10s %9s %10s   (all ratios "
                "cycle/event; 1.0 = perfect correlation)\n",
                "", "ratio", "ratio", "ratio", "ratio", "ratio");

    double host_saving = 0;
    unsigned n = 0;
    for (const auto &name : workloads::names()) {
        WorkloadProfile wl = workloads::byName(name);
        SystemResult ev = runSystem(harness::CtrlModel::Event, wl);
        SystemResult cy = runSystem(harness::CtrlModel::Cycle, wl);

        std::printf("%-14s %9.3f %8.3f %10.3f %9.3f %10.3f\n",
                    name.c_str(), cy.simSeconds / ev.simSeconds,
                    cy.ipc / ev.ipc, cy.l2MissNs / ev.l2MissNs,
                    cy.busUtil / ev.busUtil,
                    cy.hostSeconds / ev.hostSeconds);
        host_saving += 1.0 - ev.hostSeconds / cy.hostSeconds;
        ++n;
    }
    std::printf("\naverage host-time saving of the event model: "
                "%.0f%% (paper: 13%% avg, up to 20%%)\n",
                100.0 * host_saving / n);
    return 0;
}
