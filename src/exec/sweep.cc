#include "exec/sweep.hh"

#include <algorithm>
#include <memory>

#include "ckpt/ckpt.hh"
#include "cyclesim/cycle_ctrl.hh"
#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "exec/batch_runner.hh"
#include "harness/config_file.hh"
#include "harness/multichannel.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace exec {

std::vector<SweepPoint>
expandGrid(const SweepSpec &spec)
{
    std::vector<SweepPoint> grid;
    unsigned seeds = std::max(1u, spec.numSeeds);
    for (const std::string &preset : spec.presets)
        for (const std::string &pattern : spec.patterns)
            for (PagePolicy page : spec.pages)
                for (AddrMapping mapping : spec.mappings)
                    for (unsigned read_pct : spec.readPcts)
                        for (double itt_ns : spec.ittNs)
                            for (harness::CtrlModel model : spec.models)
                                for (unsigned s = 0; s < seeds; ++s) {
                                    SweepPoint pt;
                                    pt.index = grid.size();
                                    pt.preset = preset;
                                    pt.pattern = pattern;
                                    pt.page = page;
                                    pt.mapping = mapping;
                                    pt.readPct = read_pct;
                                    pt.ittNs = itt_ns;
                                    pt.model = model;
                                    pt.seedIndex = s;
                                    pt.seed = deriveSeed(
                                        spec.masterSeed, pt.index);
                                    grid.push_back(std::move(pt));
                                }
    return grid;
}

namespace {

/** The stimulus of @p point. */
harness::Stimulus
stimulusOf(const SweepPoint &point, const SweepSpec &spec)
{
    harness::Stimulus s;
    s.pattern = point.pattern;
    s.readPct = point.readPct;
    s.ittNs = point.ittNs;
    s.requests = spec.requests;
    s.strideBytes = spec.strideBytes;
    s.banks = spec.banks;
    s.seed = point.seed;
    s.tracePath = spec.tracePath;
    s.traceScale = spec.traceScale;
    return s;
}

/** The controller configuration of @p point. */
DRAMCtrlConfig
configOf(const SweepPoint &point, const SweepSpec &spec)
{
    harness::ConfigRequest req;
    req.preset = point.preset;
    req.page = toString(point.page);
    req.mapping = toString(point.mapping);
    req.plugins = spec.plugins;
    DRAMCtrlConfig cfg = harness::resolveConfig(req).cfg;
    cfg.writeLowThreshold = 0.0; // drain fully so every run terminates
    return cfg;
}

/**
 * Put @p stim on @p sys, recording what it injects to
 * "<prefix><index>.dtrc" when the spec asks for a capture.
 */
template <typename System>
void
addPointStimulus(System &sys, const SweepPoint &point,
                 const SweepSpec &spec, const harness::Stimulus &stim)
{
    if (!spec.traceCapturePrefix.empty())
        sys.enableCapture(spec.traceCapturePrefix +
                          std::to_string(point.index) + ".dtrc");
    sys.addStimulus(stim);
}

/**
 * Assemble the single-channel system for @p point with @p stim, whose
 * request budget and seed may differ from the point's (so the warm-up
 * and measured phases can use the same assembly).
 */
std::unique_ptr<harness::SingleChannelSystem>
buildPoint(const SweepPoint &point, const SweepSpec &spec,
           const harness::Stimulus &stim)
{
    auto tb = std::make_unique<harness::SingleChannelSystem>(
        configOf(point, spec), point.model);
    addPointStimulus(*tb, point, spec, stim);
    return tb;
}

/**
 * The row of @p point once @p sys has run. Bandwidth is summed over
 * the channels; bus utilisation and row-hit rate are unweighted means
 * (the generators drive the channels symmetrically).
 */
template <typename System>
SweepRow
collectRow(const SweepPoint &point, System &sys)
{
    sys.finishCapture();

    SweepRow row;
    row.point = point;
    row.simulatedUs = toSeconds(sys.sim().curTick()) * 1e6;
    row.avgReadLatencyNs = sys.avgReadLatencyNs();
    row.responses = sys.responses();
    for (unsigned ch = 0; ch < sys.numChannels(); ++ch) {
        MemCtrlBase &ctrl = sys.ctrl(ch);
        row.bandwidthGBs += ctrl.achievedBandwidthGBs();
        row.busUtil += ctrl.busUtilisation();
        if (point.model == harness::CtrlModel::Event)
            row.rowHitRate += static_cast<DRAMCtrl &>(ctrl)
                                  .ctrlStats()
                                  .rowHitRate.value();
    }
    row.busUtil /= sys.numChannels();
    row.rowHitRate /= sys.numChannels();
    return row;
}

/**
 * One sharded multi-channel point: spec.channels controllers behind
 * the crossbar, one generator per channel, spec.simThreads workers.
 * The row depends only on (point, spec) — never on the thread count.
 */
SweepRow
runMultiPoint(const SweepPoint &point, const SweepSpec &spec)
{
    harness::MultiChannelConfig mcfg;
    mcfg.channels = spec.channels;
    mcfg.ctrl = configOf(point, spec);
    mcfg.model = point.model;
    mcfg.simThreads = spec.simThreads;
    harness::MultiChannelSystem mc(mcfg);
    addPointStimulus(mc, point, spec, stimulusOf(point, spec));
    mc.runToCompletion();
    return collectRow(point, mc);
}

/**
 * The warm-up stimulus of @p point: the point's stimulus with the
 * warm-up budget and one seed per config group, disjoint from every
 * measured seed (which derive from masterSeed and the point index
 * directly).
 */
harness::Stimulus
warmupStimulusOf(const SweepPoint &point, const SweepSpec &spec)
{
    harness::Stimulus s = stimulusOf(point, spec);
    s.requests = spec.warmupRequests;
    s.seed = deriveSeed(spec.masterSeed ^ 0x5741524d55500aULL,
                        configGroupOf(point, spec));
    return s;
}

} // namespace

bool
checkSpec(const SweepSpec &spec, std::string *err)
{
    auto reject = [err](const std::string &why) {
        if (err != nullptr)
            *err = why;
        return false;
    };
    auto known = presets::names();
    for (const std::string &p : spec.presets)
        if (std::find(known.begin(), known.end(), p) == known.end())
            return reject("unknown preset '" + p + "'");
    harness::Stimulus stim = stimulusOf(SweepPoint{}, spec);
    for (const std::string &pattern : spec.patterns) {
        stim.pattern = pattern;
        for (unsigned pct : spec.readPcts) {
            stim.readPct = pct;
            if (!harness::checkStimulus(stim, spec.channels, err))
                return false;
        }
        if (pattern == "trace" && spec.warmupRequests > 0)
            return reject("the trace pattern does not support warm-up");
    }
    if (!spec.plugins.empty()) {
        DRAMCtrlConfig probe;
        std::string perr;
        if (!plugin::parsePluginList(spec.plugins, probe, perr))
            return reject(perr);
    }
    for (const SweepPoint &pt : expandGrid(spec)) {
        const char *f = pt.model == harness::CtrlModel::Cycle
                            ? cyclesim::CycleDRAMCtrl::unsupportedFeature(
                                  configOf(pt, spec))
                            : nullptr;
        if (f != nullptr)
            return reject(formatString(
                "the cycle model does not support %s (preset %s); drop "
                "the cycle model axis", f, pt.preset.c_str()));
    }
    if (spec.presets.empty() || spec.patterns.empty() ||
        spec.pages.empty() || spec.mappings.empty() ||
        spec.readPcts.empty() || spec.ittNs.empty() ||
        spec.models.empty())
        return reject("empty sweep axis");
    if (spec.channels > 1 && spec.warmupRequests > 0)
        return reject("multi-channel sweeps do not support warm-up");
    return true;
}

std::size_t
configGroupOf(const SweepPoint &point, const SweepSpec &spec)
{
    return point.index / std::max(1u, spec.numSeeds);
}

SweepRow
runSweepPoint(const SweepPoint &point, const SweepSpec &spec)
{
    if (spec.channels > 1)
        return runMultiPoint(point, spec);

    if (spec.warmupRequests == 0 || point.pattern == "trace") {
        auto tb = buildPoint(point, spec, stimulusOf(point, spec));
        tb->runToCompletion();
        return collectRow(point, *tb);
    }

    // Cold warm-up: run the group's warm-up stream inline, reset the
    // statistics, then extend the run with the measured requests.
    auto tb = buildPoint(point, spec, warmupStimulusOf(point, spec));
    tb->runToCompletion();
    tb->sim().resetStats();
    tb->gen().extendRun(spec.requests, point.seed);
    tb->runToCompletion();
    return collectRow(point, *tb);
}

std::string
captureWarmupSnapshot(const SweepPoint &point, const SweepSpec &spec)
{
    DC_ASSERT(spec.warmupRequests > 0,
              "warm-start snapshot requested without warmupRequests");
    auto tb = buildPoint(point, spec, warmupStimulusOf(point, spec));
    tb->runToCompletion();
    tb->sim().resetStats();
    return ckpt::saveToString(tb->sim());
}

SweepRow
runMeasuredFromSnapshot(const SweepPoint &point, const SweepSpec &spec,
                        const std::string &snapshot)
{
    auto tb = buildPoint(point, spec, warmupStimulusOf(point, spec));
    ckpt::restoreFromString(tb->sim(), snapshot);
    tb->gen().extendRun(spec.requests, point.seed);
    tb->runToCompletion();
    return collectRow(point, *tb);
}

std::string
csvHeader()
{
    return "index,preset,pattern,page,mapping,read_pct,itt_ns,model,"
           "seed_index,seed,simulated_us,bandwidth_gbs,"
           "avg_read_latency_ns,bus_util,row_hit_rate,responses";
}

std::string
toCsv(const SweepRow &row)
{
    const SweepPoint &pt = row.point;
    return formatString(
        "%zu,%s,%s,%s,%s,%u,%.3f,%s,%u,%llu,%.3f,%.4f,%.2f,%.4f,"
        "%.4f,%llu",
        pt.index, pt.preset.c_str(), pt.pattern.c_str(),
        toString(pt.page), toString(pt.mapping), pt.readPct, pt.ittNs,
        harness::toString(pt.model), pt.seedIndex,
        static_cast<unsigned long long>(pt.seed), row.simulatedUs,
        row.bandwidthGBs, row.avgReadLatencyNs, row.busUtil,
        row.rowHitRate,
        static_cast<unsigned long long>(row.responses));
}

std::string
toJsonl(const SweepRow &row)
{
    const SweepPoint &pt = row.point;
    return formatString(
        "{\"index\": %zu, \"preset\": \"%s\", \"pattern\": \"%s\", "
        "\"page\": \"%s\", \"mapping\": \"%s\", \"read_pct\": %u, "
        "\"itt_ns\": %.3f, \"model\": \"%s\", \"seed_index\": %u, "
        "\"seed\": %llu, \"simulated_us\": %.3f, "
        "\"bandwidth_gbs\": %.4f, \"avg_read_latency_ns\": %.2f, "
        "\"bus_util\": %.4f, \"row_hit_rate\": %.4f, "
        "\"responses\": %llu}",
        pt.index, pt.preset.c_str(), pt.pattern.c_str(),
        toString(pt.page), toString(pt.mapping), pt.readPct, pt.ittNs,
        harness::toString(pt.model), pt.seedIndex,
        static_cast<unsigned long long>(pt.seed), row.simulatedUs,
        row.bandwidthGBs, row.avgReadLatencyNs, row.busUtil,
        row.rowHitRate,
        static_cast<unsigned long long>(row.responses));
}

} // namespace exec
} // namespace dramctrl
