/**
 * @file
 * Common interface for memory controller models.
 *
 * The validation experiments (Section III) run the event-based model
 * and the cycle-based comparator through identical harnesses; this
 * interface is what those harnesses program against. It also carries
 * the statistics the Micron power model consumes (Section II-G).
 */

#ifndef DRAMCTRL_MEM_MEM_CTRL_IFACE_H
#define DRAMCTRL_MEM_MEM_CTRL_IFACE_H

#include <vector>

#include "dram/addr_decoder.hh"
#include "dram/cmd_log.hh"
#include "dram/dram_config.hh"
#include "dram/plugin/plugin.hh"
#include "mem/addr_range.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace dramctrl {

/**
 * The controller-behaviour summary the offline Micron power model needs
 * (Section II-G): activate count, bus utilisation per direction, the
 * time all banks spent precharged, and refresh count, over a window of
 * simulated time.
 */
struct PowerInputs
{
    /** Length of the measurement window in ticks. */
    Tick window = 0;
    double numActs = 0;
    double numPrecharges = 0;
    /** Rank refreshes: 1 per REF (each rank's), 1/banksPerRank per REFpb. */
    double numRefreshes = 0;
    /** DRAM bursts actually transferred, per direction. */
    double readBursts = 0;
    double writeBursts = 0;
    /** Ticks during which no bank was active and no refresh ran. */
    Tick prechargeAllTime = 0;
    /** Ticks spent in precharge power-down (subset of the above). */
    Tick powerDownTime = 0;
    /** Ticks spent in self-refresh (disjoint from powerDownTime). */
    Tick selfRefreshTime = 0;
    /** Fraction of the window the data bus carried read data. */
    double readBusFraction = 0;
    /** Fraction of the window the data bus carried write data. */
    double writeBusFraction = 0;
};

/**
 * Abstract memory controller: one channel, one system-facing port.
 *
 * Both models issue every DRAM command they imply through logCmd(),
 * which feeds the power tally, an attached CmdLogger and the plugin
 * chain. The tally derives every power input from the command stream by
 * one rule, so power differences between the models come from what
 * they do, not from how each counts it: ACT, PRE and refresh commands
 * are counted (one REF per rank), RD and WR are the bursts, a bank is
 * active from its ACT until its PRE + tRP, and a refresh keeps its rank
 * (REF, tRFC) or bank (REFpb tRFCpb, REFm tRFM) busy; prechargeAllTime
 * is the time in the stats window when nothing is active or refreshing.
 */
class MemCtrlBase : public SimObject
{
  public:
    /**
     * @param sim the owning simulator
     * @param name instance name (also the stats path component)
     * @param cfg controller and DRAM parameters (validated here)
     * @param range the (possibly channel-interleaved) address range
     *              this controller responds to
     */
    MemCtrlBase(Simulator &sim, std::string name, DRAMCtrlConfig cfg,
                AddrRange range);

    /** The system-facing port; bind a crossbar or requestor to it. */
    ResponsePort &port() { return port_; }

    /** Full parameter set of this controller instance. */
    const DRAMCtrlConfig &config() const { return cfg_; }
    const AddrRange &range() const { return range_; }

    /** True when no requests are queued or awaiting response. */
    virtual bool idle() const = 0;

    /** Tick at which the current stats window started. */
    Tick statsWindowStart() const { return windowStart_; }

    /** Simulated seconds in the current stats window. */
    double
    windowSeconds() const
    {
        return toSeconds(curTick() - windowStart_);
    }

    /** Data-bus utilisation (both directions) over the stats window. */
    double
    busUtilisation() const
    {
        double w = windowSeconds();
        return w > 0 ? bytesMoved() / 1e9 / peakBandwidthGBs() / w : 0.0;
    }

    /** Achieved bandwidth over the stats window, GByte/s. */
    double
    achievedBandwidthGBs() const
    {
        double w = windowSeconds();
        return w > 0 ? bytesMoved() / 1e9 / w : 0.0;
    }

    /** Theoretical peak bandwidth of the channel, GByte/s. */
    double
    peakBandwidthGBs() const
    {
        return static_cast<double>(config().org.burstSize()) /
               toSeconds(config().timing.tBURST) / 1e9;
    }

    /** Inputs for the offline power calculation, up to now. */
    PowerInputs powerInputs() const;

    /**
     * Requests currently buffered in the controller's queues — the
     * live occupancy the introspection endpoint reports.
     */
    virtual std::size_t queuedRequests() const = 0;

    /**
     * Attach a command logger: every implied DRAM command (ACT, PRE,
     * RD, WR, REF, ...) is recorded with its launch tick, for debugging
     * and for ProtocolChecker audits. Pass nullptr to detach. Not
     * owned.
     */
    void setCmdLogger(CmdLogger *logger) { cmdLogger_ = logger; }

    /** The controller's plugin chain (empty without --plugins). */
    plugin::PluginChain &pluginChain() { return plugins_; }
    const plugin::PluginChain &pluginChain() const { return plugins_; }

    /** The power tally and the plugin chain; models call it last. */
    void checkpoint(ckpt::Io &io) override;

  protected:
    /** A request from the port, already checked to be in range(). */
    virtual bool recvTimingReq(Packet *pkt) = 0;

    /** The model statistics the tally keeps current. */
    struct TallyStats
    {
        stats::Scalar *numActs, *numPrecharges, *numRefreshes;
        stats::Scalar *bytesRead, *bytesWritten, *prechargeAllTime;
        /** Low-power residency, read only; null without power-down. */
        const stats::Scalar *powerDownTime = nullptr;
        const stats::Scalar *selfRefreshTime = nullptr;
    };

    /**
     * Start the tally on @p stats once they exist (after the plugin
     * chain), folding it into every stats dump and restarting it with
     * every reset.
     */
    void initTally(const TallyStats &stats);

    /**
     * Issue an implied DRAM command launched at @p tick: into the
     * power tally, the attached CmdLogger (if any) and the plugin
     * chain's onCommand hook.
     */
    void
    logCmd(Tick tick, DRAMCmd cmd, unsigned rank, unsigned bank,
           std::uint64_t row = 0)
    {
        tally(tick, cmd, rank * config().org.banksPerRank + bank);
        if (cmdLogger_)
            cmdLogger_->record(tick, cmd, rank, bank, row);
        if (!plugins_.empty())
            plugins_.onCommand({tick, cmd, rank, bank, row});
    }

    class MemoryPort : public ResponsePort
    {
      public:
        MemoryPort(std::string name, MemCtrlBase &ctrl)
            : ResponsePort(std::move(name)), ctrl_(ctrl)
        {}

        bool recvTimingReq(Packet *pkt) override;
        void recvRespRetry() override { ctrl_.respQueue_.resume(); }

      private:
        MemCtrlBase &ctrl_;
    };

    DRAMCtrlConfig cfg_;
    AddrRange range_;
    AddrDecoder decoder_;
    MemoryPort port_;
    PacketQueue respQueue_;
    /** Ordered plugin chain built from the config (may be empty). */
    plugin::PluginChain plugins_;

  private:
    double
    bytesMoved() const
    {
        return tallied_.bytesRead->value() + tallied_.bytesWritten->value();
    }

    /** Account a command to flat bank @p flat (rank-major). */
    void tally(Tick tick, DRAMCmd cmd, unsigned flat);

    /**
     * A busy span from @p start to @p end (kMaxTick: until endBusy()).
     * Models log commands ahead of time (the event model computes
     * launches analytically, both log auto-precharges with their column
     * command, the event model's power-down precharges land in the
     * past), so spans arrive out of tick order: the idle time before a
     * busy stretch is counted when its first span arrives, and a
     * stretch ends at the latest end seen.
     */
    void busy(Tick start, Tick end);
    void endBusy(Tick end);

    /** Count prechargeAllTime up to now. */
    void foldIdle();

    TallyStats tallied_{};
    Tick windowStart_ = 0;
    /** Open banks and refreshes whose end is not yet accounted. */
    unsigned busy_ = 0;
    /** With nothing busy: idle since this tick, counted up to it. */
    Tick idleSince_ = 0;
    /** Start of the current busy stretch. */
    Tick busySince_ = 0;
    /** The latest end of any busy span. */
    Tick lastEnd_ = 0;
    /** Rank refreshes in the window (see PowerInputs::numRefreshes). */
    double rankRefreshes_ = 0;
    /** Per flat bank: tick of the open row's ACT, or kMaxTick. */
    std::vector<Tick> actAt_;

    CmdLogger *cmdLogger_ = nullptr;
};

} // namespace dramctrl

#endif // DRAMCTRL_MEM_MEM_CTRL_IFACE_H
