#include "power/micron_power.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dramctrl {
namespace power {

MicronPowerParams
ddr3Params()
{
    // Representative 2 Gbit DDR3 x8 currents.
    MicronPowerParams p;
    p.vdd = 1.5;
    p.idd0 = 0.055;
    p.idd6 = 0.006;
    p.idd2n = 0.032;
    p.idd3n = 0.038;
    p.idd4r = 0.157;
    p.idd4w = 0.125;
    p.idd5 = 0.235;
    return p;
}

MicronPowerParams
lpddr3Params()
{
    // Representative LPDDR3 x32 die; single-rail equivalent of the
    // dual-rail datasheet numbers.
    MicronPowerParams p;
    p.vdd = 1.8;
    p.idd0 = 0.030;
    p.idd2p = 0.002;
    p.idd6 = 0.0015;
    p.idd2n = 0.012;
    p.idd3n = 0.018;
    p.idd4r = 0.110;
    p.idd4w = 0.100;
    p.idd5 = 0.130;
    return p;
}

MicronPowerParams
wideioParams()
{
    // Representative WideIO SDR x128 stacked die: slow clock, very low
    // standby, wide but low-swing IO.
    MicronPowerParams p;
    p.vdd = 1.2;
    p.idd0 = 0.010;
    p.idd2p = 0.001;
    p.idd6 = 0.0008;
    p.idd2n = 0.003;
    p.idd3n = 0.006;
    p.idd4r = 0.090;
    p.idd4w = 0.085;
    p.idd5 = 0.050;
    return p;
}

MicronPowerParams
hmcVaultParams()
{
    MicronPowerParams p;
    p.vdd = 1.2;
    p.idd0 = 0.015;
    p.idd2p = 0.001;
    p.idd6 = 0.001;
    p.idd2n = 0.004;
    p.idd3n = 0.008;
    p.idd4r = 0.060;
    p.idd4w = 0.055;
    p.idd5 = 0.060;
    return p;
}

MicronPowerParams
ddr4Params()
{
    // Representative 8 Gbit DDR4-2400 x8 currents: lower rail than
    // DDR3, higher burst currents at the faster interface.
    MicronPowerParams p;
    p.vdd = 1.2;
    p.idd0 = 0.048;
    p.idd2p = 0.025;
    p.idd6 = 0.020;
    p.idd2n = 0.034;
    p.idd3n = 0.044;
    p.idd4r = 0.140;
    p.idd4w = 0.130;
    p.idd5 = 0.190;
    return p;
}

MicronPowerParams
lpddr4Params()
{
    // Representative LPDDR4-3200 x16 die; single-rail equivalent of
    // the VDD1/VDD2/VDDQ datasheet split.
    MicronPowerParams p;
    p.vdd = 1.1;
    p.idd0 = 0.028;
    p.idd2p = 0.0012;
    p.idd6 = 0.0005;
    p.idd2n = 0.009;
    p.idd3n = 0.014;
    p.idd4r = 0.155;
    p.idd4w = 0.145;
    p.idd5 = 0.100;
    return p;
}

MicronPowerParams
hbm2Params()
{
    // Representative HBM2 pseudochannel slice: very wide low-swing IO
    // over TSVs, modest per-slice core currents.
    MicronPowerParams p;
    p.vdd = 1.2;
    p.idd0 = 0.018;
    p.idd2p = 0.001;
    p.idd6 = 0.001;
    p.idd2n = 0.005;
    p.idd3n = 0.009;
    p.idd4r = 0.080;
    p.idd4w = 0.075;
    p.idd5 = 0.070;
    return p;
}

bool
hasParamsFor(const std::string &preset_name)
{
    for (const char *known :
         {"ddr3_1333", "ddr3_1600", "lpddr3_1600", "wideio_200",
          "hmc_vault", "ddr4_2400", "lpddr4_3200", "hbm2"}) {
        if (preset_name == known)
            return true;
    }
    return false;
}

MicronPowerParams
paramsFor(const std::string &preset_name)
{
    if (preset_name == "ddr3_1333" || preset_name == "ddr3_1600")
        return ddr3Params();
    if (preset_name == "lpddr3_1600")
        return lpddr3Params();
    if (preset_name == "wideio_200")
        return wideioParams();
    if (preset_name == "hmc_vault")
        return hmcVaultParams();
    if (preset_name == "ddr4_2400")
        return ddr4Params();
    if (preset_name == "lpddr4_3200")
        return lpddr4Params();
    if (preset_name == "hbm2")
        return hbm2Params();
    fatal("no power parameters for preset '%s'", preset_name.c_str());
}

PowerBreakdown
computePower(const PowerInputs &in, const DRAMCtrlConfig &cfg,
             const MicronPowerParams &params)
{
    PowerBreakdown out;
    if (in.window == 0)
        return out;

    const DRAMTiming &t = cfg.timing;
    double window_s = toSeconds(in.window);
    double tras_s = toSeconds(t.tRAS);
    double trc_s = toSeconds(t.tRAS + t.tRP);
    double trfc_s = toSeconds(t.tRFC);

    // Activate/precharge: the energy of one ACT-PRE pair above the
    // standby floor, times the measured activate rate.
    double e_act = (params.idd0 * trc_s - params.idd3n * tras_s -
                    params.idd2n * (trc_s - tras_s)) *
                   params.vdd;
    e_act = std::max(e_act, 0.0);
    out.actPre = e_act * in.numActs / window_s;

    // Read/write burst power scales with the measured bus utilisation.
    out.read = (params.idd4r - params.idd3n) * params.vdd *
               in.readBusFraction;
    out.write = (params.idd4w - params.idd3n) * params.vdd *
                in.writeBusFraction;

    // Refresh: the increment over active standby for tRFC out of every
    // refresh interval, at the measured refresh rate.
    out.refresh = (params.idd5 - params.idd3n) * params.vdd *
                  (in.numRefreshes * trfc_s / window_s);

    // Background: self-refresh (IDD6) and power-down (IDD2P) while the
    // optional low-power extensions had the device asleep, precharge
    // standby while all banks are closed, active standby otherwise.
    double sr_frac =
        std::min(1.0, toSeconds(in.selfRefreshTime) / window_s);
    double pd_frac =
        std::min(1.0 - sr_frac,
                 toSeconds(in.powerDownTime) / window_s);
    double pre_frac =
        std::min(1.0, toSeconds(in.prechargeAllTime) / window_s);
    pre_frac = std::max(0.0, pre_frac - pd_frac - sr_frac);
    if (sr_frac + pd_frac + pre_frac > 1.0)
        pre_frac = 1.0 - sr_frac - pd_frac;
    double awake = 1.0 - sr_frac - pd_frac - pre_frac;
    out.background =
        params.vdd * (params.idd6 * sr_frac + params.idd2p * pd_frac +
                      params.idd2n * pre_frac + params.idd3n * awake);

    // Scale from one device to the whole channel.
    double devices = static_cast<double>(cfg.org.devicesPerRank) *
                     cfg.org.ranksPerChannel;
    out.actPre *= devices;
    out.read *= devices;
    out.write *= devices;
    // numRefreshes already counts each rank's REF.
    out.refresh *= static_cast<double>(cfg.org.devicesPerRank);
    out.background *= devices;
    return out;
}

} // namespace power
} // namespace dramctrl
