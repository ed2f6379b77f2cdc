#include "power/dram_power.hh"

#include <algorithm>

#include "dram/dram_presets.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace power {

CommandEnergyParams
deriveFromMicron(const MicronPowerParams &p, const DRAMTiming &t)
{
    CommandEnergyParams e;
    double tras_s = toSeconds(t.tRAS);
    double trc_s = toSeconds(t.tRAS + t.tRP);
    e.eActPre = std::max(0.0, (p.idd0 * trc_s - p.idd3n * tras_s -
                               p.idd2n * (trc_s - tras_s)) *
                                  p.vdd);
    e.eRdBurst = (p.idd4r - p.idd3n) * p.vdd * toSeconds(t.tBURST);
    e.eWrBurst = (p.idd4w - p.idd3n) * p.vdd * toSeconds(t.tBURST);
    e.eRef = (p.idd5 - p.idd3n) * p.vdd * toSeconds(t.tRFC);
    e.pSelfRefresh = p.idd6 * p.vdd;
    e.pPowerDown = p.idd2p * p.vdd;
    e.pPreStandby = p.idd2n * p.vdd;
    e.pActStandby = p.idd3n * p.vdd;
    return e;
}

CommandEnergyParams
commandEnergyFor(const std::string &preset_name)
{
    return deriveFromMicron(paramsFor(preset_name),
                            presets::byName(preset_name).timing);
}

PowerBreakdown
computeCommandEnergy(const PowerInputs &in, const DRAMCtrlConfig &cfg,
                     const CommandEnergyParams &params)
{
    PowerBreakdown out;
    if (in.window == 0)
        return out;
    double window_s = toSeconds(in.window);

    out.actPre = params.eActPre * in.numActs / window_s;
    out.read = params.eRdBurst * in.readBursts / window_s;
    out.write = params.eWrBurst * in.writeBursts / window_s;
    out.refresh = params.eRef * in.numRefreshes / window_s;

    double sr_frac =
        std::min(1.0, toSeconds(in.selfRefreshTime) / window_s);
    double pd_frac = std::min(1.0 - sr_frac,
                              toSeconds(in.powerDownTime) / window_s);
    double pre_frac =
        std::min(1.0, toSeconds(in.prechargeAllTime) / window_s);
    pre_frac = std::max(0.0, pre_frac - pd_frac - sr_frac);
    if (sr_frac + pd_frac + pre_frac > 1.0)
        pre_frac = 1.0 - sr_frac - pd_frac;
    out.background =
        params.pSelfRefresh * sr_frac + params.pPowerDown * pd_frac +
        params.pPreStandby * pre_frac +
        params.pActStandby * (1.0 - sr_frac - pd_frac - pre_frac);

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

double
totalEnergyJoules(const PowerInputs &in, const DRAMCtrlConfig &cfg,
                  const CommandEnergyParams &params)
{
    return computeCommandEnergy(in, cfg, params).total() *
           toSeconds(in.window);
}

} // namespace power
} // namespace dramctrl
