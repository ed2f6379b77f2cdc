/**
 * @file
 * The event-based DRAM controller model — the paper's core contribution.
 *
 * The controller mirrors a contemporary design (Section II-A): split
 * read and write queues buffered per controller, early write responses,
 * read snooping of the write queue, write merging, and cache-line to
 * DRAM-burst chopping. It tracks the state of every bank and the shared
 * data bus, and enforces the pruned timing set of Section II-B
 * analytically: instead of stepping the DRAM cycle by cycle it computes,
 * at the moment a burst is scheduled, the future ticks at which the
 * bank and bus state change, and only wakes up at those ticks
 * (Section II-D). Scheduling (Section II-C) offers FCFS and FR-FCFS,
 * four page policies, and a write-drain mode with high/low watermarks.
 */

#ifndef DRAMCTRL_DRAM_DRAM_CTRL_H
#define DRAMCTRL_DRAM_DRAM_CTRL_H

#include <memory>
#include <string>
#include <vector>

#include "dram/addr_decoder.hh"
#include "dram/cmd_log.hh"
#include "dram/dram_config.hh"
#include "dram/plugin/plugin.hh"
#include "mem/addr_range.hh"
#include "mem/mem_ctrl_iface.hh"
#include "mem/packet.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "sim/pool.hh"
#include "sim/ring_buffer.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"
#include "stats/latency_attr.hh"
#include "stats/stats.hh"

namespace dramctrl {

class DRAMCtrl : public MemCtrlBase
{
  public:
    /**
     * @param sim the owning simulator
     * @param name instance name (also the stats path component)
     * @param config controller and DRAM parameters (validated here)
     * @param range the (possibly channel-interleaved) address range
     *              this controller responds to
     */
    DRAMCtrl(Simulator &sim, std::string name, DRAMCtrlConfig config,
             AddrRange range);
    ~DRAMCtrl() override;

    /** The system-facing port; bind a crossbar or requestor to it. */
    ResponsePort &port() override { return port_; }

    const DRAMCtrlConfig &config() const override { return cfg_; }
    const AddrRange &range() const { return range_; }

    /** Queue occupancies, for tests and drain checks. */
    std::size_t readQueueSize() const { return readQueue_.size(); }
    std::size_t writeQueueSize() const { return writeQueue_.size(); }

    /**
     * True when every accepted request has been answered. Writes
     * parked in the write queue do not count: their responses went out
     * when they were accepted (Section II-A early write response).
     */
    bool idle() const override;

    std::size_t queuedRequests() const override
    {
        return readQueue_.size() + writeQueue_.size();
    }

    /**
     * Externally visible statistics (fed to the Micron power model and
     * the benchmark harness). All counters cover the window since the
     * last stats reset.
     */
    struct CtrlStats
    {
        explicit CtrlStats(DRAMCtrl &ctrl);

        stats::Scalar readReqs;
        stats::Scalar writeReqs;
        stats::Scalar readBursts;
        stats::Scalar writeBursts;
        stats::Scalar servicedByWrQ;
        stats::Scalar mergedWrBursts;
        stats::Scalar readRowHits;
        stats::Scalar writeRowHits;
        stats::Scalar numActs;
        stats::Scalar numPrecharges;
        stats::Scalar numRefreshes;
        stats::Scalar bytesRead;
        stats::Scalar bytesWritten;
        stats::Scalar numRdRetry;
        stats::Scalar numWrRetry;
        /** Sum over read bursts of time from queue entry to selection. */
        stats::Scalar totQLat;
        /** Sum over read bursts of selection-to-data-complete time. */
        stats::Scalar totSvcLat;
        /** Sum over read bursts of entry-to-data-complete time. */
        stats::Scalar totMemAccLat;
        /** Accumulated time during which every bank was precharged. */
        stats::Scalar prechargeAllTime;
        /** Time spent in precharge power-down (if enabled). */
        stats::Scalar powerDownTime;
        /** Power-down entries. */
        stats::Scalar powerDownEntries;
        /** Time spent in self-refresh (subset extension of above). */
        stats::Scalar selfRefreshTime;
        /** Self-refresh entries. */
        stats::Scalar selfRefreshEntries;
        /** Time-weighted read queue occupancy (length x ticks). */
        stats::Scalar rdQOccupancyTicks;
        /** Time-weighted write queue occupancy (length x ticks). */
        stats::Scalar wrQOccupancyTicks;
        /** Reads serviced per read-write turnaround. */
        stats::Average rdPerTurnAround;
        /** Writes drained per write episode. */
        stats::Average wrPerTurnAround;
        /**
         * Read latency attribution: per-stage histograms under the
         * "lat" child group whose stages sum exactly to the
         * controller's end-to-end read latency, itself the "total"
         * histogram.
         */
        stats::StageLatencyStats lat;
        stats::Vector perBankRdBursts;
        stats::Vector perBankWrBursts;

        stats::Formula rowHitRate;
        stats::Formula busUtil;
        stats::Formula busUtilRead;
        stats::Formula busUtilWrite;
        stats::Formula avgRdQLen;
        stats::Formula avgWrQLen;
        stats::Formula avgQLatNs;
        stats::Formula avgMemAccLatNs;
        stats::Formula avgRdBWGBs;
        stats::Formula avgWrBWGBs;
        stats::Formula peakBWGBs;
    };

    const CtrlStats &ctrlStats() const { return *stats_; }

    /**
     * Attach a command logger: every implied DRAM command (ACT, PRE,
     * RD, WR, REF) is recorded with its computed launch tick, for
     * debugging and for ProtocolChecker audits. Pass nullptr to
     * detach. Not owned.
     */
    void setCmdLogger(CmdLogger *logger) { cmdLogger_ = logger; }

    /**
     * Test-only fault injection: scale the internal tRCD by @p factor
     * (e.g. 0.5 makes the controller schedule column commands too
     * early). The validation harness uses this to prove the
     * ProtocolChecker — constructed with the *unscaled* timing —
     * actually catches timing bugs. Never call outside tests.
     */
    void testScaleTRCD(double factor)
    {
        cfg_.timing.tRCD =
            static_cast<Tick>(cfg_.timing.tRCD * factor);
    }

    /**
     * Test-only fault injection: skip the PRAC mitigation refresh the
     * plugin demands before an over-activated bank's next ACT. Proves
     * the checker's "prac" rule fires. Never call outside tests.
     */
    void testSkipPracMitigation() { testSkipPrac_ = true; }

    /**
     * Test-only fault injection: scale the tRFCpb blackout the
     * controller applies after a per-bank refresh (0.0 removes it), so
     * the next ACT lands inside the checker's tRFCpb window. Never
     * call outside tests.
     */
    void testScaleTRFCpb(double factor) { testTRFCpbScale_ = factor; }

    /**
     * Test-only fault injection: stall the per-bank refresh manager —
     * stop issuing REFpb to flat bank @p flat — so the checker's
     * per-bank tREFI deadline rule fires. Never call outside tests.
     */
    void testStallPerBankRefresh(unsigned flat)
    {
        testStallRefPbFlat_ = flat;
    }

    /** The controller's plugin chain (empty without --plugins). */
    plugin::PluginChain &pluginChain() { return plugins_; }
    const plugin::PluginChain &pluginChain() const { return plugins_; }

    /** Tick at which the current stats window started. */
    Tick statsWindowStart() const { return windowStart_; }

    /** Simulated seconds in the current stats window. */
    double windowSeconds() const
    {
        return toSeconds(curTick() - windowStart_);
    }

    /** Data-bus utilisation (both directions) over the stats window. */
    double busUtilisation() const override;

    /** Achieved read+write bandwidth over the stats window, GByte/s. */
    double achievedBandwidthGBs() const override;

    /** Theoretical peak bandwidth of the channel, GByte/s. */
    double peakBandwidthGBs() const override;

    PowerInputs powerInputs() const override;

    void startup() override;

    void checkpoint(ckpt::Io &io) override;

  private:
    /** Open-row sentinel: the bank is precharged. */
    static constexpr std::uint64_t kNoRow = ~std::uint64_t(0);

    /**
     * Per-rank state: rank-level activate constraints. Bank state
     * lives in the flat struct-of-arrays vectors below, not here.
     */
    struct Rank
    {
        /** Earliest next activate anywhere in the rank (tRRD). */
        Tick nextActAt = 0;
        /**
         * Launch ticks of the last activationLimit activates, a ring
         * sized once by the limit so tXAW bookkeeping never allocates.
         */
        RingBuffer<Tick> actWindow;
    };

    struct BurstHelper;

    /** One DRAM burst in flight through the controller (pooled). */
    struct DRAMPacket : public Pooled<DRAMPacket>
    {
        Tick entryTime = 0;
        Tick readyTime = 0;
        /** Original system packet; null for already-answered writes. */
        Packet *pkt = nullptr;
        bool isRead = true;
        RequestorId requestorId = 0;
        unsigned rank = 0;
        unsigned bank = 0;
        std::uint64_t row = 0;
        std::uint64_t col = 0;
        /** Dense local address of the burst window. */
        Addr burstAddr = 0;
        /** Lowest/one-past-highest byte actually touched. */
        Addr lo = 0;
        Addr hi = 0;
        BurstHelper *burstHelper = nullptr;
    };

    /** Completion bookkeeping for packets chopped into many bursts. */
    struct BurstHelper : public Pooled<BurstHelper>
    {
        unsigned burstCount;
        unsigned burstsServiced = 0;

        explicit BurstHelper(unsigned count) : burstCount(count) {}
    };

    class MemoryPort : public ResponsePort
    {
      public:
        MemoryPort(std::string name, DRAMCtrl &ctrl)
            : ResponsePort(std::move(name)), ctrl_(ctrl)
        {}

        bool recvTimingReq(Packet *pkt) override
        {
            return ctrl_.recvTimingReq(pkt);
        }

        void recvRespRetry() override { ctrl_.recvRespRetry(); }

      private:
        DRAMCtrl &ctrl_;
    };

    enum class BusState { Read, Write };

    bool recvTimingReq(Packet *pkt);
    void recvRespRetry();

    /** Number of burst windows [addr, addr+size) overlaps. */
    unsigned burstCountFor(Addr local_addr, unsigned size) const;

    void addToReadQueue(Packet *pkt, Addr local_addr);
    void addToWriteQueue(Packet *pkt, Addr local_addr);

    /** Build a burst-level DRAMPacket for one burst window. */
    DRAMPacket *makeDRAMPacket(Packet *pkt, Addr lo, Addr hi,
                               bool is_read) const;

    /** Main state machine: pick a burst, run it, schedule the next. */
    void processNextReqEvent();

    /** Pick the next burst per the scheduling policy; null if none. */
    std::vector<DRAMPacket *>::iterator
    chooseNext(std::vector<DRAMPacket *> &queue);

    /** Estimated earliest tick @p pkt's column command could launch. */
    Tick estimateReadyTick(const DRAMPacket &pkt) const;

    /**
     * The row-miss half of estimateReadyTick: earliest activate-then-
     * column launch for the bank, independent of the requesting burst.
     */
    Tick estimateBankReady(unsigned rank_idx, unsigned bank_idx) const;

    /** QoS priority of @p pkt under FrFcfsPrio; 0 otherwise. */
    unsigned priorityOf(const DRAMPacket &pkt) const;

    /** Perform the access: compute all timings, update bank/bus state. */
    void doDRAMAccess(DRAMPacket *pkt);

    /** Launch a precharge at @p pre_tick (>= the bank's preAllowedAt). */
    void prechargeBank(unsigned flat_bank, Tick pre_tick);

    /** Account an activate at @p act_tick and apply tRRD/tXAW. */
    void recordActivate(Rank &rank, Tick act_tick);

    /** Earliest activate obeying the rolling tXAW window. */
    Tick activationWindowConstraint(const Rank &rank, Tick act_tick) const;

    /** True if any queued burst hits @p row in the same bank. */
    bool queuedRowHits(unsigned rank, unsigned bank,
                       std::uint64_t row) const;
    /** True if any queued burst conflicts with the open @p row. */
    bool queuedBankConflicts(unsigned rank, unsigned bank,
                             std::uint64_t row) const;

    /** Apply the page policy after a column access to @p pkt's bank. */
    void applyPagePolicy(const DRAMPacket &pkt);

    void processRefreshEvent();

    /** Refresh one rank (perRankRefresh mode). */
    void refreshRank(unsigned rank_idx);

    /** Rotating per-bank refresh (refmgr-pb plugin mode). */
    void processPerBankRefreshEvent();

    /**
     * Record an implied DRAM command: into the attached CmdLogger (if
     * any) and through the plugin chain's onCommand hook. All command
     * emission funnels through here so plugins observe the stream even
     * without a logger.
     */
    void
    logCmd(Tick tick, DRAMCmd cmd, unsigned rank, unsigned bank,
           std::uint64_t row = 0)
    {
        if (cmdLogger_)
            cmdLogger_->record(tick, cmd, rank, bank, row);
        if (!plugins_.empty())
            plugins_.onCommand({tick, cmd, rank, bank, row});
    }

    /**
     * If the PRAC plugin demands a mitigation before the next ACT to
     * @p flat_bank, issue a RefM ending no earlier than @p act_from and
     * return the tick the ACT may launch; otherwise @p act_from.
     */
    Tick pracMitigate(unsigned flat_bank, unsigned rank, unsigned bank,
                      Tick act_from);

    /** Send (or schedule) the response for a completed request. */
    void accessAndRespond(Packet *pkt, Tick static_latency,
                          Tick ready_time);

    /** Power accounting: a bank went active at @p act_tick. */
    void bankActivated(Tick act_tick);
    /** Power accounting: a bank closed at @p pre_done_tick. */
    void bankPrecharged(Tick pre_done_tick);

    /** Wake the blocked requestor if queue space freed up. */
    void retryBlockedReq();

    /** Fold elapsed time into the queue-occupancy integrals. */
    void touchQueueStats();

    DRAMCtrlConfig cfg_;
    AddrRange range_;
    AddrDecoder decoder_;

    MemoryPort port_;
    RespPacketQueue respQueue_;

    std::vector<Rank> ranks_;

    /**
     * Bank timing state as struct-of-arrays, flat-bank indexed
     * (rank-major, matching the checkpoint layout). The FR-FCFS scan
     * reads openRow and colAllowedAt across many banks per decision;
     * one packed 64-bit lane per field keeps those walks on
     * contiguous cache lines instead of striding through an array of
     * structs, and the checkpoint code serialises the vectors
     * verbatim.
     */
    std::vector<std::uint64_t> bankOpenRow_;
    std::vector<Tick> bankPreAllowedAt_;
    std::vector<Tick> bankActAllowedAt_;
    std::vector<Tick> bankColAllowedAt_;
    std::vector<std::uint32_t> bankRowAccesses_;

    /**
     * Bank-group timing state, armed only when the organisation has
     * more than one group (hasBankGroups_); DDR3-era configs keep the
     * vectors empty and every fast path untouched. grpColAllowedAt_
     * and grpNextActAt_ are (rank * groups + group) indexed and carry
     * the *long* (same-group) constraints; nextColAllowedAt_ is the
     * channel-wide short column spacing (tCCD_S), which the data-bus
     * serialisation already subsumes for logged streams but is kept
     * explicit so estimates stay conservative.
     */
    bool hasBankGroups_ = false;
    std::vector<Tick> grpColAllowedAt_;
    std::vector<Tick> grpNextActAt_;
    Tick nextColAllowedAt_ = 0;

    /** Flat (rank-major) bank-group index of @p flat_bank. */
    unsigned
    grpIdx(unsigned flat_bank) const
    {
        return (flat_bank / cfg_.org.banksPerRank) *
                   cfg_.org.bankGroupsPerRank +
               cfg_.org.bankGroup(flat_bank % cfg_.org.banksPerRank);
    }

    /**
     * Earliest column command to @p flat_bank: the per-bank limit
     * folded with the bank-group and channel-wide spacings when the
     * organisation has groups.
     */
    Tick
    colAllowedAt(unsigned flat_bank) const
    {
        Tick t = bankColAllowedAt_[flat_bank];
        if (hasBankGroups_) {
            Tick g = grpColAllowedAt_[grpIdx(flat_bank)];
            if (g > t)
                t = g;
            if (nextColAllowedAt_ > t)
                t = nextColAllowedAt_;
        }
        return t;
    }

    /**
     * Pending bursts, oldest first. Vectors with capacity reserved to
     * the queue limits: scheduling scans run over contiguous pointers,
     * and enqueue/dequeue never allocate. Selection erases from the
     * middle, an O(n) pointer move bounded by the small queue depth.
     */
    std::vector<DRAMPacket *> readQueue_;
    std::vector<DRAMPacket *> writeQueue_;

    /**
     * Packed (flat bank, row) key of each queued burst, kept parallel
     * to the queue vectors. Row-hit recounts after an activate scan
     * these flat integer arrays (one vectorisable equality sweep)
     * instead of dereferencing every queued packet.
     */
    std::vector<std::uint64_t> rdKeys_;
    std::vector<std::uint64_t> wrKeys_;

    static constexpr unsigned kRowKeyBits = 48;

    static std::uint64_t
    packKey(unsigned flat_bank, std::uint64_t row)
    {
        return (static_cast<std::uint64_t>(flat_bank) << kRowKeyBits) |
               row;
    }

    /** Write queue entry covering the burst window at @p burst_addr. */
    DRAMPacket *findWriteEntry(Addr burst_addr) const;

    /**
     * Incremental scheduling state. The row-hit counters track, per
     * flat bank and per queue, how many queued bursts target the bank's
     * currently open row (used by the O(1) adaptive page policy
     * probes). The totals count only *usable* hits — hits on banks
     * whose open row has not reached the starvation limit — which is
     * exactly the set plain FR-FCFS may select, so the scheduler can
     * stop at the oldest such hit without estimating ready ticks. The
     * ready cache memoises the state-dependent part of the miss
     * estimate per bank, tagged with bank+rank generation counters so
     * entries die exactly when the owning bank or rank state changes.
     */
    struct ReadyCache
    {
        /** bankGen + rankGen + 1 at fill time; 0 means never filled. */
        std::uint64_t tag = 0;
        /** State-dependent lower bound (already includes tRCD). */
        Tick base = 0;
        /** curTick-relative lower bound: est = max(base, now + off). */
        Tick nowOffset = 0;
    };

    mutable std::vector<ReadyCache> readyCache_;
    std::vector<std::uint64_t> bankGen_;
    std::vector<std::uint64_t> rankGen_;

    std::vector<std::uint32_t> rdRowHitCounts_;
    std::vector<std::uint32_t> wrRowHitCounts_;
    std::vector<std::uint32_t> rdBankCounts_;
    std::vector<std::uint32_t> wrBankCounts_;
    unsigned rdRowHitTotal_ = 0;
    unsigned wrRowHitTotal_ = 0;

    /**
     * Per flat bank: the open row hit its access limit, so its queued
     * hits are excluded from the usable totals and must be scheduled
     * as conflicts. Cleared whenever the row closes or a new one
     * opens (rowAccesses restarts from zero).
     */
    std::vector<std::uint8_t> starvedHits_;

    /** Highest priority any requestor holds under FrFcfsPrio. */
    unsigned maxReqPriority_ = 0;

    /** Flat (rank-major) index of @p bank in rank @p rank. */
    unsigned flatIdx(unsigned rank, unsigned bank) const
    {
        return rank * cfg_.org.banksPerRank + bank;
    }

    void invalidateBank(unsigned flat_bank) { ++bankGen_[flat_bank]; }
    void invalidateRank(unsigned rank_idx) { ++rankGen_[rank_idx]; }

    /** Track a burst entering/leaving a queue (count bookkeeping). */
    void noteEnqueued(const DRAMPacket &pkt, bool is_read);
    void noteDequeued(const DRAMPacket &pkt, bool is_read);
    /** Zero the row-hit counters of a bank whose row just closed. */
    void rowClosed(unsigned flat_bank);
    /** Recount row hits for a bank that just opened @p row. */
    void rowOpened(unsigned rank, unsigned bank, std::uint64_t row);

    BusState busState_ = BusState::Read;

    /** Tick the shared data bus becomes free. */
    Tick busBusyUntil_ = 0;
    /**
     * Earliest tick the next burst decision may run. Keeping this as
     * pacing state (rather than always waking at curTick) bounds how
     * far the controller's bus reservations run ahead of simulated
     * time, so queue occupancy and back pressure stay faithful even
     * for sparse arrivals.
     */
    Tick nextReqTime_ = 0;
    /** Earliest read column command (tWTR after write data). */
    Tick nextRdCmdAt_ = 0;
    /** Earliest write data start (tRTW after read data). */
    Tick nextWrDataAt_ = 0;
    /** Direction of the most recently issued burst. */
    bool lastBurstWasRead_ = true;

    /** Reads serviced since the last switch to reads. */
    unsigned readsThisTime_ = 0;
    /** Writes drained since the last switch to writes. */
    unsigned writesThisTime_ = 0;

    /** Whether the requestor is blocked on a full queue. */
    bool retryReq_ = false;

    Tick nextRefreshAt_ = 0;
    /** Per-rank refresh due times (perRankRefresh mode). */
    std::vector<Tick> rankRefreshDue_;
    /** Earliest tick a refresh may launch (tRP after any precharge). */
    Tick refNotBefore_ = 0;

    /**
     * Tick at which the device (nominally) entered power-down, or
     * kMaxTick while awake. Updated lazily: set when the controller
     * runs out of actionable work, consumed by the next access.
     */
    Tick poweredDownAt_ = kMaxTick;
    /** Earliest command tick after a power-down exit (tXP applied). */
    Tick wakeConstraint_ = 0;

    /**
     * If power-down is enabled and in effect at @p now, account the
     * time and return the tick commands may resume (now + tXP).
     */
    Tick exitPowerDown(Tick now);
    /** Arm power-down after the current activity drains. */
    void armPowerDown();

    /** Banks currently (nominally) holding an open row. */
    unsigned numBanksActive_ = 0;
    Tick allBanksPreSince_ = 0;

    Tick windowStart_ = 0;
    Tick lastQStatUpdate_ = 0;

    EventFunctionWrapper nextReqEvent_;
    EventFunctionWrapper refreshEvent_;

    CmdLogger *cmdLogger_ = nullptr;

    /** Ordered plugin chain built from cfg_.plugins (may be empty). */
    plugin::PluginChain plugins_;
    /** Cached typed plugins (owned by plugins_); null when absent. */
    plugin::RefreshManager *refMgr_ = nullptr;
    plugin::PracPlugin *pracPlugin_ = nullptr;

    // Test-only fault injection knobs (see the public test* methods).
    bool testSkipPrac_ = false;
    double testTRFCpbScale_ = 1.0;
    unsigned testStallRefPbFlat_ = ~0u;

    std::unique_ptr<CtrlStats> stats_;
};

} // namespace dramctrl

#endif // DRAMCTRL_DRAM_DRAM_CTRL_H
