/**
 * @file
 * Host-cost ablation for the controller plugin chain (ECC, PRAC,
 * refresh managers — docs/PLUGINS.md). The paper's speed claim
 * (Section IV) rests on the event model doing almost no per-command
 * work; the plugin hooks add a dispatch on every enqueue, command and
 * burst, so this bench quantifies what a full chain costs relative to
 * the bare controller on identical traffic.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "bench_util.hh"
#include "dram/plugin/plugin.hh"

using namespace dramctrl;
using namespace dramctrl::bench;

namespace {

struct ChainResult
{
    double hostSeconds = 0;
    double reqPerSec = 0;
    double avgReadLatencyNs = 0;
};

ChainResult
run(const std::string &plugins)
{
    constexpr std::uint64_t kRequests = 60000;

    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0; // drain fully so runs terminate
    if (!plugins.empty()) {
        std::string err;
        if (!plugin::parsePluginList(plugins, cfg, err))
            fatal("plugin_overhead: %s", err.c_str());
        for (auto &spec : cfg.plugins) {
            if (spec.kind == "ecc") {
                spec.eccBer = 1e-4; // exercise the error-draw path
                spec.eccSeed = 99;
            } else if (spec.kind == "prac") {
                spec.pracThreshold = 32;
            }
        }
    }
    cfg.check();

    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);

    GenConfig gc;
    gc.windowSize = 1 << 22;
    gc.readPct = 70;
    gc.minITT = gc.maxITT = fromNs(6);
    gc.numRequests = kRequests;
    gc.seed = 12345;
    auto &gen = tb.addGen<RandomGen>(gc);

    auto t0 = std::chrono::steady_clock::now();
    tb.runToCompletion([&] { return gen.done(); }, fromUs(100000));
    auto t1 = std::chrono::steady_clock::now();

    ChainResult r;
    r.hostSeconds = std::chrono::duration<double>(t1 - t0).count();
    r.reqPerSec = kRequests / r.hostSeconds;
    r.avgReadLatencyNs = gen.avgReadLatencyNs();
    return r;
}

} // namespace

int
main()
{
    setQuiet(true);
    printHeader("plugin_overhead: controller plugin chain host cost",
                "extension of Section IV (simulation performance)");

    std::printf("mixed random traffic, event model, one channel; the\n"
                "chain adds hook dispatches per enqueue/command/burst\n\n");
    std::printf("%-18s | %10s %12s %12s | %8s\n", "chain", "host s",
                "req/s", "read lat ns", "vs bare");

    const char *chains[] = {"", "ecc", "ecc,prac", "ecc,prac,refmgr",
                            "refmgr-pb"};
    double baseline = 0;
    for (const char *chain : chains) {
        ChainResult r = run(chain);
        if (baseline == 0)
            baseline = r.reqPerSec;
        std::printf("%-18s | %10.3f %12.0f %12.1f | %7.1f%%\n",
                    *chain ? chain : "(none)", r.hostSeconds,
                    r.reqPerSec, r.avgReadLatencyNs,
                    100.0 * r.reqPerSec / baseline);
    }

    std::printf("\nexpected: the chain taxes host req/s (the ECC "
                "binomial draw and PRAC tables\ndominate) but leaves "
                "simulated timing bit-identical — except refmgr-pb,\n"
                "whose per-bank refresh trades blackout width for "
                "frequency.\n");
    return 0;
}
