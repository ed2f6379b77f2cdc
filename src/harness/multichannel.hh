/**
 * @file
 * Sharded multi-channel system assembly.
 *
 * MultiChannelSystem is the scaling counterpart of the testbench's
 * SingleChannelSystem: N synthetic generators drive M channel
 * controllers through a Crossbar, with each channel (its
 * controller plus its half of the crossbar) bound to its own
 * simulation shard. Generators are distributed round-robin over the
 * channel shards. With --sim-threads > 1 the shards execute on a
 * worker team under the conservative windowed engine; the results are
 * byte-identical at every thread count (see sim/shard.hh).
 */

#ifndef DRAMCTRL_HARNESS_MULTICHANNEL_H
#define DRAMCTRL_HARNESS_MULTICHANNEL_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dram/cmd_log.hh"
#include "harness/testbench.hh"
#include "mem/mem_ctrl_iface.hh"
#include "sim/simulator.hh"
#include "trafficgen/base_gen.hh"
#include "trafficgen/trace.hh"
#include "xbar/xbar.hh"

namespace dramctrl {
namespace harness {

/** Parameters of the sharded multi-channel system. */
struct MultiChannelConfig
{
    /** Channels; each gets one controller and one shard. */
    unsigned channels = 2;
    DRAMCtrlConfig ctrl;
    CtrlModel model = CtrlModel::Event;
    XBarConfig xbar;
    /** Channel interleaving granularity (0 = one 64 B block). */
    std::uint64_t interleaveGranularity = 0;
    /** Worker threads for the sharded engine (1 = sequential). */
    unsigned simThreads = 1;
};

/**
 * N generators -> crossbar -> one controller per channel,
 * one shard per channel.
 */
class MultiChannelSystem
{
  public:
    explicit MultiChannelSystem(const MultiChannelConfig &cfg);

    Simulator &sim() { return sim_; }
    Crossbar &xbar() { return *xbar_; }
    MemCtrlBase &ctrl(unsigned ch) { return *ctrls_.at(ch); }
    BaseGen &gen(unsigned i) { return *gens_.at(i); }

    unsigned numChannels() const
    {
        return static_cast<unsigned>(ctrls_.size());
    }
    unsigned numGens() const
    {
        return static_cast<unsigned>(gens_.size());
    }

    /** Total bytes across all channels. */
    std::uint64_t totalCapacity() const;

    /**
     * Record the accepted request stream of every generator added
     * after this call into one .dtrc file (source id = generator
     * index). Shards run concurrently, so each generator gets its own
     * recorder and the per-source streams are merged by tick when
     * finishCapture() seals the file.
     */
    void enableCapture(const std::string &path);
    void finishCapture();

    /**
     * Construct generator @p i of flavour @p GenT in place, on the
     * shard of channel (i mod channels), bound to its own crossbar
     * front port. The generator's requestor id is its index.
     */
    template <typename GenT, typename GenCfgT>
    GenT &
    addGen(const GenCfgT &gen_cfg)
    {
        unsigned index = numGens();
        RequestorId id = static_cast<RequestorId>(index);
        Simulator::ShardScope scope(sim_, index % sim_.numShards());
        auto gen = std::make_unique<GenT>(
            sim_, "gen" + std::to_string(index), gen_cfg, id);
        if (!capturePath_.empty()) {
            auto rec = std::make_unique<TraceRecorder>(
                sim_, "trace_rec" + std::to_string(index));
            gen->port().bind(rec->cpuSidePort());
            rec->memSidePort().bind(xbar_->addFrontPort({id}));
            recorders_.push_back(std::move(rec));
        } else {
            gen->port().bind(xbar_->addFrontPort({id}));
        }
        GenT &ref = *gen;
        gens_.push_back(std::move(gen));
        return ref;
    }

    unsigned numPlayers() const
    {
        return static_cast<unsigned>(players_.size());
    }

    /** All generators done, controllers drained, crossbar idle. */
    bool drained() const;

    /** Run until drained() (or the tick budget is spent). */
    Tick runToCompletion(Tick max_ticks = fromUs(100000));

    /**
     * Attach one command logger per channel (idempotent) and return
     * them in channel order.
     */
    std::vector<CmdLogger> &attachCmdLoggers();

    double
    totalBandwidthGBs() const
    {
        return harness::totalBandwidthGBs(ctrls_);
    }

    double avgBusUtil() const { return harness::avgBusUtil(ctrls_); }

    /** Mean end-to-end read latency over all generators, ns. */
    double avgReadLatencyNs() const;

    /** Responses received, summed over generators and players. */
    std::uint64_t responses() const;

    /**
     * Add the stimulus @p s describes: one generator per channel, or
     * one trace player per recorded source (see stimulus.cc).
     */
    void addStimulus(const Stimulus &s);

  private:
    MultiChannelConfig cfg_;
    Simulator sim_;
    std::unique_ptr<Crossbar> xbar_;
    std::vector<std::unique_ptr<MemCtrlBase>> ctrls_;
    std::vector<std::unique_ptr<BaseGen>> gens_;
    std::vector<std::unique_ptr<TracePlayer>> players_;
    std::vector<std::unique_ptr<TraceRecorder>> recorders_;
    std::string capturePath_;
    bool captureDone_ = false;
    /** Stable storage: controllers hold pointers into this. */
    std::unique_ptr<std::vector<CmdLogger>> cmdLoggers_;
};

/**
 * Carve the generator address windows: generator @p i of @p n plays
 * in an equal slice of the whole @p total_mem so the streams do not
 * collide (they still interleave over every channel).
 */
GenConfig sliceGenWindow(GenConfig base, unsigned i, unsigned n,
                         std::uint64_t total_mem);

/**
 * System presets: named multi-channel assemblies. hmc_stack_16 /
 * hmc_stack_64 / hmc_stack_256 stack N hmc_vault channels behind the
 * crossbar — the paper's HMC recipe ("combining the crossbar
 * model with 16 instances of our controller model"), and its scaled-up
 * descendants for parallel-simulation studies. hbm2_stack_4 /
 * hbm2_stack_8 stack N physical HBM2 channels, each split into its
 * org.pseudoChannels independently-timed pseudochannel controllers
 * (so N x 2 controller instances), the same future-architecture
 * exploration recipe applied to an HBM stack.
 */
bool isSystemPreset(const std::string &name);

/** Look a system preset up by name; fatal() on unknown names. */
MultiChannelConfig systemPresetByName(const std::string &name);

/** All system preset names, for tests and command-line tools. */
std::vector<std::string> systemPresetNames();

} // namespace harness
} // namespace dramctrl

#endif // DRAMCTRL_HARNESS_MULTICHANNEL_H
