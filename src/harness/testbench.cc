#include "harness/testbench.hh"

#include <algorithm>
#include <numeric>

#include "cyclesim/cycle_ctrl.hh"
#include "sim/logging.hh"
#include "trafficgen/trace_file.hh"

namespace dramctrl {
namespace harness {

const char *
toString(CtrlModel m)
{
    switch (m) {
      case CtrlModel::Event: return "event";
      case CtrlModel::Cycle: return "cycle";
    }
    return "invalid";
}

std::unique_ptr<MemCtrlBase>
makeController(Simulator &sim, const std::string &name,
               const DRAMCtrlConfig &cfg, AddrRange range,
               CtrlModel model)
{
    if (model == CtrlModel::Event)
        return std::make_unique<DRAMCtrl>(sim, name, cfg, range);
    return std::make_unique<cyclesim::CycleDRAMCtrl>(sim, name, cfg,
                                                     range);
}

double
avgBusUtil(const std::vector<std::unique_ptr<MemCtrlBase>> &ctrls)
{
    double total = 0;
    for (const auto &ctrl : ctrls)
        total += ctrl->busUtilisation();
    return total / static_cast<double>(ctrls.size());
}

double
totalBandwidthGBs(const std::vector<std::unique_ptr<MemCtrlBase>> &ctrls)
{
    double total = 0;
    for (const auto &ctrl : ctrls)
        total += ctrl->achievedBandwidthGBs();
    return total;
}

Tick
runUntil(Simulator &sim, const std::function<bool()> &done, Tick step,
         Tick max_ticks)
{
    Tick limit = sim.curTick() + max_ticks;
    // Poll at absolute multiples of the step so the stopping tick
    // doesn't depend on where the run started: a simulation resumed
    // from a mid-step checkpoint observes done() at the same absolute
    // times an uninterrupted run does.
    while (!done() && sim.curTick() < limit) {
        Tick next = (sim.curTick() / step + 1) * step;
        sim.run(std::min(next, limit));
    }
    return sim.curTick();
}

SingleChannelSystem::SingleChannelSystem(const DRAMCtrlConfig &cfg,
                                         CtrlModel model, Addr base)
{
    ctrl_ = makeController(sim_, "mem_ctrl", cfg,
                           AddrRange(base, cfg.org.channelCapacity),
                           model);
}

DRAMCtrl &
SingleChannelSystem::eventCtrl()
{
    auto *c = dynamic_cast<DRAMCtrl *>(ctrl_.get());
    if (c == nullptr)
        panic("eventCtrl() on a cycle-model testbench");
    return *c;
}

void
SingleChannelSystem::enableCapture(const std::string &path)
{
    if (genAdded_)
        fatal("enableCapture() must be called before addGen()");
    if (recorder_ != nullptr)
        fatal("capture already enabled");
    recorder_ = std::make_unique<TraceRecorder>(sim_, "trace_rec");
    recorder_->memSidePort().bind(ctrl_->port());
    if (traceFormatForOutput(path) == TraceFormat::Dtrc) {
        captureWriter_ = std::make_shared<TraceWriter>(
            path, kTicksPerSecond, kTraceFlagLiveCapture);
        // Single event queue: accepted requests arrive in tick order,
        // so they stream straight to the writer with O(1) memory.
        auto writer = captureWriter_;
        recorder_->setSink(
            [writer](const TraceEntry &e) { writer->append(e); });
    } else {
        // A .txt target buffers in the recorder and is written whole
        // by finishCapture() (the text format is the debug flavour;
        // the streaming path is the binary one).
        textCapturePath_ = path;
    }
}

void
SingleChannelSystem::finishCapture()
{
    if (captureWriter_ != nullptr)
        captureWriter_->finish();
    if (!textCapturePath_.empty() && recorder_ != nullptr) {
        saveTrace(textCapturePath_, recorder_->trace());
        textCapturePath_.clear();
    }
}

Tick
SingleChannelSystem::runToCompletion(
    const std::function<bool()> &gen_done, Tick max_ticks)
{
    return runUntil(
        sim_, [&] { return gen_done() && ctrl_->idle(); }, fromUs(1.0),
        max_ticks);
}

std::vector<CmdLogger> &
SingleChannelSystem::attachCmdLoggers()
{
    if (cmdLoggers_.empty()) {
        cmdLoggers_.resize(1);
        ctrl_->setCmdLogger(&cmdLoggers_[0]);
    }
    return cmdLoggers_;
}

void
SingleChannelSystem::runMeasured(Tick warmup, Tick measure)
{
    sim_.run(sim_.curTick() + warmup);
    sim_.resetStats();
    sim_.run(sim_.curTick() + measure);
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

MultiCoreSystem::MultiCoreSystem(const MultiCoreConfig &cfg,
                                 const WorkloadProfile &workload)
    : cfg_(cfg)
{
    if (cfg_.numCores == 0 || cfg_.channels == 0)
        fatal("multi-core system needs at least one core and channel");
    // An op that straddles an L1 block would reach the cache as one
    // access to two blocks. Aligned ops of a size dividing the block
    // never do; a zero size is the core's to reject.
    if (workload.opSize != 0 && cfg_.l1.blockSize % workload.opSize != 0)
        fatal("multi-core system: op size %u does not divide the L1 "
              "block size %u",
              workload.opSize, cfg_.l1.blockSize);

    std::uint64_t total_mem =
        cfg_.ctrl.org.channelCapacity * cfg_.channels;
    // Each core's slice starts on a cache-block boundary, so an
    // aligned op never straddles an L1 or L2 block.
    std::uint64_t slice = total_mem / cfg_.numCores;
    slice -= slice % std::max(cfg_.l1.blockSize, cfg_.l2.blockSize);

    // Clamp each core's working set into its slice of physical memory.
    WorkloadProfile wl = workload;
    wl.footprintBytes = std::min(wl.footprintBytes, slice);

    std::uint64_t granularity = cfg_.interleaveGranularity != 0
                                    ? cfg_.interleaveGranularity
                                    : cfg_.l2.blockSize;

    // Memory side: crossbar + one controller per channel.
    memXbar_ = std::make_unique<Crossbar>(sim_, "mem_xbar",
                                          XBarConfig{});
    auto ranges =
        interleavedRanges(0, total_mem, granularity, cfg_.channels);
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        auto ctrl = makeController(
            sim_, "mem_ctrl" + std::to_string(ch), cfg_.ctrl,
            ranges[ch], cfg_.model);
        memXbar_->addChannel(ctrl->port(), ranges[ch]);
        ctrls_.push_back(std::move(ctrl));
    }

    // Shared L2 between the L1-L2 crossbar and the memory crossbar.
    // Its fills and writebacks carry the id of the core they serve,
    // so its memory-side front answers for every core.
    l2_ = std::make_unique<Cache>(sim_, "l2", cfg_.l2);
    std::vector<RequestorId> core_ids(cfg_.numCores);
    std::iota(core_ids.begin(), core_ids.end(), RequestorId{0});
    l2_->memSidePort().bind(memXbar_->addFrontPort(core_ids));

    l1ToL2_ = std::make_unique<Crossbar>(sim_, "l1_xbar", XBarConfig{});
    l1ToL2_->addChannel(l2_->cpuSidePort(), AddrRange(0, total_mem));

    // Cores and their private L1 data caches.
    coreClock_ = std::make_unique<CoreClock>(sim_.eventq(), "cpu_clock",
                                             cfg_.core.clockPeriod);
    for (unsigned i = 0; i < cfg_.numCores; ++i) {
        auto l1 = std::make_unique<Cache>(
            sim_, "l1d" + std::to_string(i), cfg_.l1);
        l1->memSidePort().bind(
            l1ToL2_->addFrontPort({static_cast<RequestorId>(i)}));

        CoreConfig core_cfg = cfg_.core;
        core_cfg.numOps = cfg_.opsPerCore;
        core_cfg.memBase = slice * i;
        core_cfg.seed = cfg_.seed + i * 7919;

        auto core = std::make_unique<TimingCore>(
            sim_, "core" + std::to_string(i), core_cfg, wl,
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
    runUntil(sim_, done, fromUs(5.0), max_ticks);

    // The cores stop at their op budget with memory accesses still in
    // flight; drain the hierarchy so every packet is delivered before
    // any teardown or measurement.
    auto drained = [this] {
        bool caches_idle =
            l2_->idle() &&
            std::all_of(l1s_.begin(), l1s_.end(),
                        [](const std::unique_ptr<Cache> &c) {
                            return c->idle();
                        });
        bool ctrls_idle = std::all_of(
            ctrls_.begin(), ctrls_.end(),
            [](const std::unique_ptr<MemCtrlBase> &c) {
                return c->idle();
            });
        return caches_idle && ctrls_idle && l1ToL2_->idle() &&
               memXbar_->idle();
    };
    return runUntil(sim_, drained, fromUs(1.0), fromUs(1000.0));
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

} // namespace harness
} // namespace dramctrl
