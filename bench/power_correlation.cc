/**
 * @file
 * Experiment E6 — Section III-C3: DRAM power correlation between the
 * two controller models across the synthetic test cases. Both models
 * feed the same Micron power model with the inputs one tally derives
 * from their command streams; the paper reports an average difference
 * of ~3% and a maximum of ~8%, attributable to the
 * architectural/policy deltas. Each model's precharge-all fraction
 * and refresh count print next to its watts, so a difference can be
 * traced to the inputs that make it.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.hh"

using namespace dramctrl;
using namespace dramctrl::bench;

int
main()
{
    setQuiet(true);
    printHeader("power_correlation: Micron-model power, both models",
                "Section III-C3 (power validation)");

    struct Case
    {
        const char *name;
        PagePolicy page;
        AddrMapping map;
        std::uint64_t stride;
        unsigned banks;
        unsigned readPct;
    };

    const Case cases[] = {
        {"open_rd_s64_b1", PagePolicy::Open, AddrMapping::RoRaBaCoCh,
         64, 1, 100},
        {"open_rd_s512_b4", PagePolicy::Open, AddrMapping::RoRaBaCoCh,
         512, 4, 100},
        {"open_rd_s1024_b8", PagePolicy::Open,
         AddrMapping::RoRaBaCoCh, 1024, 8, 100},
        {"open_mix_s256_b4", PagePolicy::Open,
         AddrMapping::RoRaBaCoCh, 256, 4, 50},
        {"open_wr_s512_b8", PagePolicy::Open, AddrMapping::RoRaBaCoCh,
         512, 8, 0},
        {"closed_rd_s64_b8", PagePolicy::Closed,
         AddrMapping::RoCoRaBaCh, 64, 8, 100},
        {"closed_mix_s128_b4", PagePolicy::Closed,
         AddrMapping::RoCoRaBaCh, 128, 4, 50},
        {"closed_wr_s256_b8", PagePolicy::Closed,
         AddrMapping::RoCoRaBaCh, 256, 8, 0},
    };

    std::printf("%-20s %10s %10s %8s %7s %7s %6s %6s\n", "case",
                "event_W", "cycle_W", "diff", "ev_pre", "cy_pre", "ev_ref",
                "cy_ref");

    auto params = power::ddr3Params();
    std::vector<double> diffs;
    for (const Case &c : cases) {
        PointConfig pc;
        pc.page = c.page;
        pc.mapping = c.map;
        pc.strideBytes = c.stride;
        pc.banks = c.banks;
        pc.readPct = c.readPct;

        pc.model = harness::CtrlModel::Event;
        PointResult ev = runPoint(pc);
        pc.model = harness::CtrlModel::Cycle;
        PointResult cy = runPoint(pc);

        double p_ev =
            power::computePower(ev.powerIn, ev.cfg, params).total();
        double p_cy =
            power::computePower(cy.powerIn, cy.cfg, params).total();
        double diff = 100.0 * (p_ev - p_cy) / p_cy;
        diffs.push_back(std::abs(diff));

        auto pre_frac = [](const PowerInputs &in) {
            return 100.0 * static_cast<double>(in.prechargeAllTime) /
                   static_cast<double>(in.window);
        };
        std::printf("%-20s %9.3f %9.3f %7.1f%% %6.1f%% %6.1f%% %6.0f "
                    "%6.0f\n",
                    c.name, p_ev, p_cy, diff, pre_frac(ev.powerIn),
                    pre_frac(cy.powerIn), ev.powerIn.numRefreshes,
                    cy.powerIn.numRefreshes);
    }

    double avg = 0;
    for (double d : diffs)
        avg += d;
    avg /= static_cast<double>(diffs.size());
    double mx = *std::max_element(diffs.begin(), diffs.end());

    std::printf("\nsummary: avg |diff| %.1f%% (paper: ~3%%), max "
                "|diff| %.1f%% (paper: ~8%%)\n",
                avg, mx);
    return 0;
}
