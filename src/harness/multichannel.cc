#include "harness/multichannel.hh"

#include <algorithm>

#include "dram/dram_presets.hh"
#include "sim/logging.hh"
#include "trafficgen/trace_file.hh"
#include "xbar/xbar.hh"

namespace dramctrl {
namespace harness {

MultiChannelSystem::MultiChannelSystem(const MultiChannelConfig &cfg)
    : cfg_(cfg)
{
    if (cfg_.channels == 0)
        fatal("multi-channel system needs at least one channel");

    // One shard per channel; the crossbar's cheapest cross-shard hop
    // bounds how far shards may drift apart.
    sim_.configureShards(cfg_.channels,
                         ShardedCrossbar::lookahead(cfg_.xbar));
    sim_.setSimThreads(cfg_.simThreads);

    std::uint64_t total_mem =
        cfg_.ctrl.org.channelCapacity * cfg_.channels;
    std::uint64_t granularity = cfg_.interleaveGranularity != 0
                                    ? cfg_.interleaveGranularity
                                    : 64;

    xbar_ = std::make_unique<ShardedCrossbar>(sim_, "mem_xbar",
                                              cfg_.xbar);
    auto ranges = interleavedRanges(0, total_mem, granularity,
                                    cfg_.channels);
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        Simulator::ShardScope scope(sim_, ch);
        auto ctrl = makeController(sim_,
                                   "mem_ctrl" + std::to_string(ch),
                                   cfg_.ctrl, ranges[ch], cfg_.model);
        xbar_->addChannel(ctrl->port(), ranges[ch]);
        ctrls_.push_back(std::move(ctrl));
    }
}

std::uint64_t
MultiChannelSystem::totalCapacity() const
{
    return cfg_.ctrl.org.channelCapacity * cfg_.channels;
}

void
MultiChannelSystem::enableCapture(const std::string &path)
{
    if (!gens_.empty())
        fatal("enableCapture() must be called before addGen()");
    if (!capturePath_.empty())
        fatal("capture already enabled");
    if (path.empty())
        fatal("capture needs a non-empty path");
    if (traceFormatForOutput(path) == TraceFormat::Text)
        fatal("multi-channel capture records per-source streams, "
              "which the text format cannot carry; use a non-.txt "
              "path (and trace_cli to convert later)");
    capturePath_ = path;
}

void
MultiChannelSystem::finishCapture()
{
    if (capturePath_.empty() || captureDone_)
        return;
    captureDone_ = true;

    // Merge the per-generator streams (each tick-sorted by
    // construction) into one tick-ordered file; ties break towards the
    // lowest source index, deterministically.
    TraceWriter writer(capturePath_, kTicksPerSecond,
                       kTraceFlagLiveCapture);
    std::vector<std::size_t> idx(recorders_.size(), 0);
    for (;;) {
        int best = -1;
        for (std::size_t i = 0; i < recorders_.size(); ++i) {
            const auto &t = recorders_[i]->trace();
            if (idx[i] >= t.size())
                continue;
            if (best < 0 ||
                t[idx[i]].tick <
                    recorders_[best]->trace()[idx[best]].tick)
                best = static_cast<int>(i);
        }
        if (best < 0)
            break;
        writer.append(recorders_[best]->trace()[idx[best]++],
                      static_cast<unsigned>(best));
    }
    writer.finish();
}

bool
MultiChannelSystem::drained() const
{
    bool gens_done = std::all_of(
        gens_.begin(), gens_.end(),
        [](const std::unique_ptr<BaseGen> &g) { return g->done(); });
    bool players_done = std::all_of(
        players_.begin(), players_.end(),
        [](const std::unique_ptr<TracePlayer> &p) {
            return p->done();
        });
    if (!gens_done || !players_done)
        return false;
    bool ctrls_idle = std::all_of(
        ctrls_.begin(), ctrls_.end(),
        [](const std::unique_ptr<MemCtrlBase> &c) {
            return c->idle();
        });
    return ctrls_idle && xbar_->idle();
}

Tick
MultiChannelSystem::runToCompletion(Tick max_ticks)
{
    if (gens_.empty() && players_.empty())
        fatal("multi-channel system has no generators");
    return runUntil(
        sim_, [this] { return drained(); }, fromUs(1.0), max_ticks);
}

std::vector<CmdLogger> &
MultiChannelSystem::attachCmdLoggers()
{
    if (cmdLoggers_ == nullptr) {
        cmdLoggers_ =
            std::make_unique<std::vector<CmdLogger>>(numChannels());
        for (unsigned ch = 0; ch < numChannels(); ++ch)
            ctrls_[ch]->setCmdLogger(&(*cmdLoggers_)[ch]);
    }
    return *cmdLoggers_;
}

double
MultiChannelSystem::avgReadLatencyNs() const
{
    // Weight each generator by its responded-read count so the mean
    // matches a pooled sample.
    double weighted = 0, reads = 0;
    for (const auto &gen : gens_) {
        double n = gen->genStats().readLatencyHist.count();
        weighted += gen->avgReadLatencyNs() * n;
        reads += n;
    }
    for (const auto &player : players_) {
        double n = static_cast<double>(player->readResponses());
        weighted += player->avgReadLatencyNs() * n;
        reads += n;
    }
    return reads > 0 ? weighted / reads : 0;
}

std::uint64_t
MultiChannelSystem::responses() const
{
    std::uint64_t total = 0;
    for (const auto &gen : gens_)
        total += static_cast<std::uint64_t>(
            gen->genStats().recvResponses.value());
    for (const auto &player : players_)
        total += player->responses();
    return total;
}

namespace {

/**
 * name -> {base controller preset, instance count}. For the HBM2
 * stacks the count is physical channels; each physical channel is
 * split into org.pseudoChannels independently-timed controllers, so
 * the instantiated channel count is count x pseudoChannels.
 */
struct SystemPresetDef
{
    const char *name;
    const char *ctrlPreset;
    unsigned count;
};

const SystemPresetDef kSystemPresets[] = {
    {"hmc_stack_16", "hmc_vault", 16},
    {"hmc_stack_64", "hmc_vault", 64},
    {"hmc_stack_256", "hmc_vault", 256},
    {"hbm2_stack_4", "hbm2", 4},
    {"hbm2_stack_8", "hbm2", 8},
};

} // namespace

bool
isSystemPreset(const std::string &name)
{
    for (const auto &p : kSystemPresets)
        if (name == p.name)
            return true;
    return false;
}

MultiChannelConfig
systemPresetByName(const std::string &name)
{
    for (const auto &p : kSystemPresets) {
        if (name != p.name)
            continue;
        MultiChannelConfig cfg;
        cfg.ctrl = presets::byName(p.ctrlPreset);
        cfg.channels = p.count * cfg.ctrl.org.pseudoChannels;
        return cfg;
    }
    fatal("unknown system preset '%s'", name.c_str());
}

std::vector<std::string>
systemPresetNames()
{
    std::vector<std::string> out;
    for (const auto &p : kSystemPresets)
        out.emplace_back(p.name);
    return out;
}

GenConfig
sliceGenWindow(GenConfig base, unsigned i, unsigned n,
               std::uint64_t total_mem)
{
    std::uint64_t slice = total_mem / n;
    base.startAddr = slice * i;
    base.windowSize = std::min(base.windowSize, slice);
    return base;
}

} // namespace harness
} // namespace dramctrl
