/**
 * @file
 * System-assembly pieces shared by the tests, benchmarks, examples and
 * tools: the controller factory, the synthetic Stimulus of a run,
 * runUntil(), and SingleChannelSystem — one traffic generator driving
 * one controller (either model) directly, the Section III validation
 * setup.
 *
 * The crossbar systems build on one memory side, in multichannel.hh:
 * MultiChannelSystem (generators or trace players over M channels)
 * and MultiCoreSystem, the Section IV closed loop of cores and caches
 * in front of it (Figure 1's structure).
 */

#ifndef DRAMCTRL_HARNESS_TESTBENCH_H
#define DRAMCTRL_HARNESS_TESTBENCH_H

#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "dram/cmd_log.hh"
#include "dram/dram_ctrl.hh"
#include "mem/mem_ctrl_iface.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "trafficgen/base_gen.hh"
#include "trafficgen/trace.hh"

namespace dramctrl {
class TraceWriter;
}

namespace dramctrl {
namespace harness {

/** Which controller model to instantiate. */
enum class CtrlModel {
    Event, ///< the paper's event-based model (DRAMCtrl)
    Cycle, ///< the DRAMSim2-style comparator (CycleDRAMCtrl)
};

const char *toString(CtrlModel m);

/**
 * The synthetic stimulus of a run, as dramctrl_cli and every sweep
 * point describe it: what to inject, not where. The systems' own
 * addStimulus() turns it into generators (see stimulus.cc).
 */
struct Stimulus
{
    /** "linear", "random", "dram" (bank-aware) or "trace". */
    std::string pattern = "random";
    unsigned readPct = 100;
    /** Fixed inter-transaction time, ns. */
    double ittNs = 6.0;
    /** Requests in total, split evenly over the generators. */
    std::uint64_t requests = 20000;
    /** dram pattern: sequential bytes per bank visit. */
    std::uint64_t strideBytes = 256;
    /** dram pattern: banks cycled over. */
    unsigned banks = 4;
    std::uint64_t seed = 1;
    /** trace pattern: stimulus file, text or .dtrc. */
    std::string tracePath;
    /** trace pattern: stretch (>1) or compress (<1) replayed gaps. */
    double traceScale = 1.0;
};

/**
 * Whether @p s can drive a system of @p channels channels.
 * @return false and fill @p err (when non-null) with the reason.
 */
bool checkStimulus(const Stimulus &s, unsigned channels, std::string *err);

/** Instantiate a controller of either model behind MemCtrlBase. */
std::unique_ptr<MemCtrlBase> makeController(Simulator &sim,
                                            const std::string &name,
                                            const DRAMCtrlConfig &cfg,
                                            AddrRange range,
                                            CtrlModel model);

/**
 * Run @p sim in steps of @p step ticks until @p done returns true or
 * @p max_ticks elapse.
 *
 * @return the tick the loop stopped at.
 */
Tick runUntil(Simulator &sim, const std::function<bool()> &done,
              Tick step = fromUs(1.0), Tick max_ticks = fromUs(100000));

/** One generator, one controller: the validation testbench. */
class SingleChannelSystem
{
  public:
    SingleChannelSystem(const DRAMCtrlConfig &cfg, CtrlModel model,
                        Addr base = 0);

    Simulator &sim() { return sim_; }
    /** The controller: channel 0 of one, as on a MultiChannelSystem. */
    MemCtrlBase &
    ctrl(unsigned ch = 0)
    {
        DC_ASSERT(ch == 0, "a single-channel system has no channel %u",
                  ch);
        return *ctrl_;
    }

    /** The event-model controller; panics if model is Cycle. */
    DRAMCtrl &eventCtrl();

    unsigned numChannels() const { return 1; }

    /**
     * Record every request the generator gets accepted into the
     * controller: a .dtrc target streams with O(1) memory, a .txt
     * target buffers. Must be called before addGen(). The file is
     * written or sealed by finishCapture() (idempotent); only a .dtrc
     * is also sealed at destruction.
     */
    void enableCapture(const std::string &path);
    void finishCapture();

    /**
     * Construct the generator (bound to the controller, through the
     * capture recorder when one is enabled) in place. Exactly one
     * generator may be added.
     */
    template <typename GenT, typename GenCfgT>
    GenT &
    addGen(const GenCfgT &gen_cfg, RequestorId id = 0)
    {
        if (genAdded_)
            fatal("SingleChannelSystem already has a generator");
        genAdded_ = true;
        auto gen = std::make_unique<GenT>(sim_, "gen", gen_cfg, id);
        gen->port().bind(recorder_ != nullptr ? recorder_->cpuSidePort()
                                              : ctrl_->port());
        GenT &ref = *gen;
        if constexpr (std::is_base_of_v<BaseGen, GenT>)
            gen_ = &ref;
        else if constexpr (std::is_same_v<GenT, TracePlayer>)
            player_ = &ref;
        genHolder_ = std::move(gen);
        return ref;
    }

    /** Add the generator (or trace player) @p s describes. */
    void addStimulus(const Stimulus &s);

    /** The synthetic generator (not set for a trace player). */
    BaseGen &
    gen()
    {
        DC_ASSERT(gen_ != nullptr, "the stimulus is a trace player");
        return *gen_;
    }

    /** Mean end-to-end read latency of the generator or player, ns. */
    double
    avgReadLatencyNs() const
    {
        return gen_ != nullptr ? gen_->avgReadLatencyNs()
                               : player_->avgReadLatencyNs();
    }

    /** Responses the generator or player received. */
    std::uint64_t
    responses() const
    {
        return gen_ != nullptr ? static_cast<std::uint64_t>(
                                     gen_->genStats().recvResponses.value())
                               : player_->responses();
    }

    /** The generator or trace player is done and the controller idle. */
    bool
    drained() const
    {
        return (gen_ != nullptr ? gen_->done() : player_->done()) &&
               ctrl_->idle();
    }

    /** Run until the generator reports done and the controller drains. */
    Tick runToCompletion(const std::function<bool()> &gen_done,
                         Tick max_ticks = fromUs(100000));

    /** runToCompletion() until the generator or trace player is done. */
    Tick
    runToCompletion(Tick max_ticks = fromUs(100000))
    {
        return runToCompletion(
            [this] { return gen_ != nullptr ? gen_->done()
                                            : player_->done(); },
            max_ticks);
    }

    /**
     * Attach a command logger to the controller (idempotent) and
     * return it as the one-channel list MultiChannelSystem returns.
     */
    std::vector<CmdLogger> &attachCmdLoggers();

    /**
     * Warm up for @p warmup ticks, reset all statistics, then run
     * another @p measure ticks (the standard measurement discipline of
     * the bandwidth sweeps).
     */
    void runMeasured(Tick warmup, Tick measure);

  private:
    Simulator sim_;
    std::unique_ptr<MemCtrlBase> ctrl_;
    std::unique_ptr<SimObject> genHolder_;
    std::unique_ptr<TraceRecorder> recorder_;
    std::shared_ptr<TraceWriter> captureWriter_;
    std::string textCapturePath_;
    bool genAdded_ = false;
    BaseGen *gen_ = nullptr;
    TracePlayer *player_ = nullptr;
    std::vector<CmdLogger> cmdLoggers_;
};

} // namespace harness
} // namespace dramctrl

#endif // DRAMCTRL_HARNESS_TESTBENCH_H
