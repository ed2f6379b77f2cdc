#include "harness/testbench.hh"

#include <algorithm>

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

} // namespace harness
} // namespace dramctrl
