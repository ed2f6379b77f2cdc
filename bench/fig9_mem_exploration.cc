/**
 * @file
 * Experiment E9 — paper Figure 9 / Section IV-B: future system
 * exploration. A 16-core canneal-like workload with a shared LLC runs
 * against three memory technologies that all offer 12.8 GByte/s:
 *
 *   DDR3:    1 channel  x 64  bit (Table IV column 1)
 *   LPDDR3:  2 channels x 32  bit (Table IV column 2)
 *   WideIO:  4 channels x 128 bit (Table IV column 3)
 *
 * The controller configuration follows Table III (20-entry queues,
 * 70%/50% watermarks, FR-FCFS, open page). The output reproduces the
 * figure's two panels: performance sensitivity (IPC) and the read
 * latency breakdown (static front/backend, queueing, bank access,
 * bus), per technology.
 *
 * Expected shape: the single-channel DDR3 suffers the largest
 * queueing component; WideIO's four slow-but-wide channels cut
 * queueing sharply at the cost of a longer bus (burst) time; LPDDR3
 * lands in between.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "cpu/workload.hh"
#include "dram/dram_ctrl.hh"
#include "exec/batch_runner.hh"
#include "harness/multichannel.hh"

using namespace dramctrl;
using namespace dramctrl::bench;

namespace {

struct TechResult
{
    double ipc;
    double l2MissNs;
    double busUtil;
    double bandwidthGBs;
    // Per-read-burst latency components, ns.
    double staticNs;
    double queueNs;
    double bankNs;
    double busNs;
};

TechResult
runTech(const std::string &preset, unsigned channels)
{
    harness::MultiCoreConfig cfg;
    cfg.numCores = 16;
    cfg.channels = channels;
    cfg.ctrl = presets::byName(preset);

    // Table III controller configuration.
    cfg.ctrl.readBufferSize = 20;
    cfg.ctrl.writeBufferSize = 20;
    cfg.ctrl.writeHighThreshold = 0.70;
    cfg.ctrl.writeLowThreshold = 0.50;
    cfg.ctrl.minWritesPerSwitch = 8;
    cfg.ctrl.schedPolicy = SchedPolicy::FrFcfs;
    cfg.ctrl.pagePolicy = PagePolicy::Open;
    cfg.ctrl.addrMapping = AddrMapping::RoRaBaCoCh;

    // Shared 8 MByte LLC as in Section IV-B.
    cfg.l2.size = 8 * 1024 * 1024;
    cfg.l2.assoc = 16;
    cfg.l2.mshrs = 32;

    cfg.model = harness::CtrlModel::Event;
    cfg.opsPerCore = 30000;
    cfg.seed = 13;

    harness::MultiCoreSystem sys(cfg, workloads::canneal());
    sys.runToCompletion(fromUs(1000000));

    TechResult r;
    r.ipc = sys.aggregateIPC();
    r.l2MissNs = sys.l2MissLatencyNs();
    r.busUtil = sys.mem().avgBusUtil();
    r.bandwidthGBs = sys.mem().totalBandwidthGBs();

    // Aggregate the latency breakdown over the channels, weighted by
    // serviced read bursts.
    double bursts = 0, q = 0, svc = 0;
    for (unsigned ch = 0; ch < sys.mem().numChannels(); ++ch) {
        auto &ctrl = dynamic_cast<DRAMCtrl &>(sys.ctrl(ch));
        const auto &s = ctrl.ctrlStats();
        double b = s.readBursts.value() - s.servicedByWrQ.value();
        bursts += b;
        q += s.totQLat.value();
        svc += s.totSvcLat.value();
    }
    r.staticNs = toNs(cfg.ctrl.frontendLatency +
                      cfg.ctrl.backendLatency);
    r.busNs = toNs(cfg.ctrl.timing.tBURST);
    if (bursts > 0) {
        r.queueNs = toNs(static_cast<Tick>(q)) / bursts;
        r.bankNs =
            toNs(static_cast<Tick>(svc)) / bursts - r.busNs;
    } else {
        r.queueNs = r.bankNs = 0;
    }
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    unsigned jobs = bench::parseJobs(argc, argv);
    printHeader("fig9_mem_exploration: DDR3 vs LPDDR3 vs WideIO, "
                "16-core canneal",
                "Figure 9 / Tables III & IV (Section IV-B)");

    struct Tech
    {
        const char *label;
        const char *preset;
        unsigned channels;
    };
    const Tech techs[] = {
        {"DDR3 1x64", "ddr3_1600", 1},
        {"LPDDR3 2x32", "lpddr3_1600", 2},
        {"WideIO 4x128", "wideio_200", 4},
    };

    std::printf("%-14s %8s %10s %9s %9s\n", "technology", "ipc",
                "l2miss_ns", "bus_util", "bw_GB/s");
    // One batch job per technology; rows print in table order as
    // each result lands, identical for any --jobs value.
    std::vector<TechResult> results;
    exec::BatchRunner runner(jobs);
    runner.run<TechResult>(
        std::size(techs),
        [&](std::size_t i) {
            return runTech(techs[i].preset, techs[i].channels);
        },
        [&](const exec::JobOutcome<TechResult> &out) {
            if (!out.ok)
                fatal("tech %s failed: %s", techs[out.index].label,
                      out.error.c_str());
            const TechResult &r = out.value;
            results.push_back(r);
            std::printf("%-14s %8.2f %10.1f %8.1f%% %9.2f\n",
                        techs[out.index].label, r.ipc, r.l2MissNs,
                        100 * r.busUtil, r.bandwidthGBs);
        });

    std::printf("\nread latency breakdown per DRAM burst (ns):\n");
    std::printf("%-14s %8s %8s %8s %8s %8s\n", "technology", "static",
                "queue", "bank", "bus", "total");
    for (unsigned i = 0; i < std::size(techs); ++i) {
        const TechResult &r = results[i];
        std::printf("%-14s %8.1f %8.1f %8.1f %8.1f %8.1f\n",
                    techs[i].label, r.staticNs, r.queueNs, r.bankNs,
                    r.busNs,
                    r.staticNs + r.queueNs + r.bankNs + r.busNs);
    }

    std::printf("\nexpected shape: DDR3's single channel carries the "
                "largest queueing component;\nWideIO trades a longer "
                "bus transfer for much lower queueing; LPDDR3 lands "
                "between.\n");
    return 0;
}
