#include "harness/multichannel.hh"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

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
    const XBarConfig xbar_cfg;
    sim_.configureShards(cfg_.channels, Crossbar::lookahead(xbar_cfg));
    sim_.setSimThreads(cfg_.simThreads);

    std::uint64_t total_mem =
        cfg_.ctrl.org.channelCapacity * cfg_.channels;
    std::uint64_t granularity = cfg_.interleaveGranularity != 0
                                    ? cfg_.interleaveGranularity
                                    : 64;

    xbar_ = std::make_unique<Crossbar>(sim_, "mem_xbar", xbar_cfg);
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
    // construction) into one tick-ordered file: a min-heap holds each
    // stream's next (tick, source), so ties break towards the lowest
    // source index, deterministically.
    TraceWriter writer(capturePath_, kTicksPerSecond,
                       kTraceFlagLiveCapture);
    using Head = std::pair<Tick, unsigned>;
    std::priority_queue<Head, std::vector<Head>, std::greater<Head>> heads;
    std::vector<std::size_t> idx(recorders_.size(), 0);
    for (unsigned src = 0; src < recorders_.size(); ++src) {
        if (!recorders_[src]->trace().empty())
            heads.push({recorders_[src]->trace()[0].tick, src});
    }
    while (!heads.empty()) {
        const unsigned src = heads.top().second;
        heads.pop();
        const auto &t = recorders_[src]->trace();
        writer.append(t[idx[src]++], src);
        if (idx[src] < t.size())
            heads.push({t[idx[src]].tick, src});
    }
    writer.finish();
}

bool
MultiChannelSystem::idle() const
{
    return std::all_of(ctrls_.begin(), ctrls_.end(),
                       [](const std::unique_ptr<MemCtrlBase> &c) {
                           return c->idle();
                       }) &&
           xbar_->idle();
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
    return gens_done && players_done && idle();
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
MultiChannelSystem::totalBandwidthGBs() const
{
    double total = 0;
    for (const auto &ctrl : ctrls_)
        total += ctrl->achievedBandwidthGBs();
    return total;
}

double
MultiChannelSystem::avgBusUtil() const
{
    double total = 0;
    for (const auto &ctrl : ctrls_)
        total += ctrl->busUtilisation();
    return total / static_cast<double>(ctrls_.size());
}

double
MultiChannelSystem::avgReadLatencyNs() const
{
    Tick ticks = 0;
    std::uint64_t reads = 0;
    for (const auto &gen : gens_) {
        ticks += gen->genStats().readLatencyHist.sumTicks();
        reads += gen->genStats().readLatencyHist.count();
    }
    for (const auto &player : players_) {
        ticks += player->totReadLatency();
        reads += player->readResponses();
    }
    return reads > 0 ? toNs(ticks) / static_cast<double>(reads) : 0;
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

MultiCoreConfig::MultiCoreConfig()
{
    // Table II defaults.
    l1.size = 64 * 1024;
    l1.assoc = 2;
    l1.blockSize = 64;
    l1.hitLatency = fromNs(2.0);
    l1.mshrs = 6;
    l1.targetsPerMshr = 8;

    l2.size = 512 * 1024;
    l2.assoc = 8;
    l2.blockSize = 64;
    l2.hitLatency = fromNs(12.0);
    l2.mshrs = 16;
    l2.targetsPerMshr = 8;
}

namespace {

/** Check the closed loop's shape; return its memory side. */
MultiChannelConfig
memorySide(const MultiCoreConfig &cfg, const WorkloadProfile &workload)
{
    if (cfg.numCores == 0 || cfg.channels == 0)
        fatal("multi-core system needs at least one core and channel");
    // An op that straddles an L1 block would reach the cache as one
    // access to two blocks. Aligned ops of a size dividing the block
    // never do; a zero size is the core's to reject.
    if (workload.opSize != 0 && cfg.l1.blockSize % workload.opSize != 0)
        fatal("multi-core system: op size %u does not divide the L1 "
              "block size %u",
              workload.opSize, cfg.l1.blockSize);

    MultiChannelConfig mem;
    mem.channels = cfg.channels;
    mem.ctrl = cfg.ctrl;
    mem.model = cfg.model;
    mem.interleaveGranularity = cfg.l2.blockSize;
    return mem;
}

} // namespace

MultiCoreSystem::MultiCoreSystem(const MultiCoreConfig &cfg,
                                 const WorkloadProfile &workload)
    : mem_(memorySide(cfg, workload))
{
    Simulator &sim = mem_.sim();
    Simulator::ShardScope scope(sim, 0);

    std::uint64_t total_mem = mem_.totalCapacity();
    // Each core's slice starts on a cache-block boundary, so an
    // aligned op never straddles an L1 or L2 block.
    std::uint64_t slice = total_mem / cfg.numCores;
    slice -= slice % std::max(cfg.l1.blockSize, cfg.l2.blockSize);

    // Clamp each core's working set into its slice of physical memory.
    WorkloadProfile wl = workload;
    wl.footprintBytes = std::min(wl.footprintBytes, slice);

    // Shared L2 between the L1-L2 crossbar and the memory crossbar.
    // Its fills and writebacks carry the id of the core they serve,
    // so its memory-side front answers for every core.
    l2_ = std::make_unique<Cache>(sim, "l2", cfg.l2);
    std::vector<RequestorId> core_ids(cfg.numCores);
    std::iota(core_ids.begin(), core_ids.end(), RequestorId{0});
    l2_->memSidePort().bind(mem_.xbar().addFrontPort(core_ids));

    l1ToL2_ = std::make_unique<Crossbar>(sim, "l1_xbar", XBarConfig{});
    l1ToL2_->addChannel(l2_->cpuSidePort(), AddrRange(0, total_mem));

    // Cores and their private L1 data caches.
    coreClock_ = std::make_unique<CoreClock>(sim.eventq(), "cpu_clock",
                                             cfg.core.clockPeriod);
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        auto l1 = std::make_unique<Cache>(
            sim, "l1d" + std::to_string(i), cfg.l1);
        l1->memSidePort().bind(
            l1ToL2_->addFrontPort({static_cast<RequestorId>(i)}));

        CoreConfig core_cfg = cfg.core;
        core_cfg.numOps = cfg.opsPerCore;
        core_cfg.memBase = slice * i;
        core_cfg.seed = cfg.seed + i * 7919;

        auto core = std::make_unique<TimingCore>(
            sim, "core" + std::to_string(i), core_cfg, wl,
            static_cast<RequestorId>(i), coreClock_.get());
        core->dcachePort().bind(l1->cpuSidePort());

        l1s_.push_back(std::move(l1));
        cores_.push_back(std::move(core));
    }
}

Tick
MultiCoreSystem::runToCompletion(Tick max_ticks)
{
    auto done = [this] {
        return std::all_of(cores_.begin(), cores_.end(),
                           [](const std::unique_ptr<TimingCore> &c) {
                               return c->done();
                           });
    };
    runUntil(sim(), done, fromUs(5.0), max_ticks);

    // The cores stop at their op budget with memory accesses still in
    // flight; drain the hierarchy so every packet is delivered before
    // any teardown or measurement.
    auto drained = [this] {
        return l2_->idle() &&
               std::all_of(l1s_.begin(), l1s_.end(),
                           [](const std::unique_ptr<Cache> &c) {
                               return c->idle();
                           }) &&
               l1ToL2_->idle() && mem_.idle();
    };
    return runUntil(sim(), drained, fromUs(1.0), fromUs(1000.0));
}

double
MultiCoreSystem::aggregateIPC() const
{
    double total = 0;
    for (const auto &core : cores_)
        total += core->ipc();
    return total;
}

double
MultiCoreSystem::l2MissLatencyNs() const
{
    return l2_->avgMissLatencyNs();
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
