/**
 * @file
 * Multi-channel memory system (the paper's Figure 1 structure): four
 * requestors share a crossbar that interleaves addresses over two
 * LPDDR3 channels at cache-line granularity. Shows how the channel
 * selection lives in the crossbar's interleaved address ranges while
 * each controller independently decodes rank/bank/row/column.
 *
 * Build & run:  ./build/examples/multichannel
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "sim/simulator.hh"
#include "trafficgen/random_gen.hh"
#include "xbar/xbar.hh"

using namespace dramctrl;

int
main()
{
    Simulator sim("multichannel");

    DRAMCtrlConfig cfg = presets::lpddr3_1600();
    const unsigned kChannels = 2;
    const std::uint64_t total = kChannels * cfg.org.channelCapacity;

    // The crossbar interleaves at 64-byte (cache line) granularity,
    // which matches the RoRaBaCoCh mapping (channel bits at the
    // bottom, Section II-F).
    XBarConfig xcfg;
    xcfg.width = 16;
    xcfg.frontendLatency = fromNs(3);
    xcfg.responseLatency = fromNs(3);
    Crossbar xbar(sim, "xbar", xcfg);

    std::vector<std::unique_ptr<DRAMCtrl>> ctrls;
    for (unsigned ch = 0; ch < kChannels; ++ch) {
        AddrRange range(0, total, 64, kChannels, ch);
        auto ctrl = std::make_unique<DRAMCtrl>(
            sim, "lpddr3_ch" + std::to_string(ch), cfg, range);
        xbar.addChannel(ctrl->port(), range);
        ctrls.push_back(std::move(ctrl));
    }

    // Four random-access requestors, each in its own address window.
    std::vector<std::unique_ptr<RandomGen>> gens;
    for (unsigned g = 0; g < 4; ++g) {
        GenConfig gc;
        gc.startAddr = static_cast<Addr>(g) * (total / 4);
        gc.windowSize = total / 4;
        gc.blockSize = 64;
        gc.readPct = 70;
        gc.minITT = gc.maxITT = fromNs(8);
        gc.numRequests = 20000;
        gc.seed = 100 + g;
        auto gen = std::make_unique<RandomGen>(
            sim, "gen" + std::to_string(g), gc,
            static_cast<RequestorId>(g));
        gen->port().bind(
            xbar.addFrontPort({static_cast<RequestorId>(g)}));
        gens.push_back(std::move(gen));
    }

    bool done = false;
    while (!done) {
        sim.run(sim.curTick() + fromUs(1));
        done = true;
        for (const auto &gen : gens)
            done = done && gen->done();
    }

    std::printf("simulated %.2f us\n", toSeconds(sim.curTick()) * 1e6);
    std::printf("%-12s %10s %10s %12s\n", "channel", "reads",
                "writes", "bus util");
    for (unsigned ch = 0; ch < kChannels; ++ch) {
        const auto &s = ctrls[ch]->ctrlStats();
        std::printf("%-12s %10.0f %10.0f %11.1f%%\n",
                    ctrls[ch]->name().c_str(), s.readReqs.value(),
                    s.writeReqs.value(),
                    100 * ctrls[ch]->busUtilisation());
    }
    std::printf("%-12s %10s %10s\n", "generator", "avg rd ns", "");
    for (const auto &gen : gens)
        std::printf("%-12s %10.1f\n", gen->name().c_str(),
                    gen->avgReadLatencyNs());
    return 0;
}
