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
    /** See MemCtrlBase::MemCtrlBase(). */
    DRAMCtrl(Simulator &sim, std::string name, DRAMCtrlConfig config,
             AddrRange range);
    ~DRAMCtrl() override;

    /** Queue occupancies, for tests and drain checks. */
    std::size_t readQueueSize() const { return readQ_.size(); }
    std::size_t writeQueueSize() const { return writeQ_.size(); }

    /**
     * True when every accepted request has been answered. Writes
     * parked in the write queue do not count: their responses went out
     * when they were accepted (Section II-A early write response).
     */
    bool idle() const override;

    std::size_t queuedRequests() const override
    {
        return readQ_.size() + writeQ_.size();
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
    struct BurstQueue;

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

    enum class BusState { Read, Write };

    bool recvTimingReq(Packet *pkt) override;

    /** Number of burst windows [addr, addr+size) overlaps. */
    unsigned burstCountFor(Addr local_addr, unsigned size) const;

    void addToReadQueue(Packet *pkt, Addr local_addr);
    void addToWriteQueue(Packet *pkt, Addr local_addr);

    /** Build a burst-level DRAMPacket for one burst window. */
    DRAMPacket *makeDRAMPacket(Packet *pkt, Addr lo, Addr hi,
                               bool is_read) const;

    /** Main state machine: pick a burst, run it, schedule the next. */
    void processNextReqEvent();

    /** Pick the next burst of non-empty @p q per the scheduling policy. */
    std::vector<DRAMPacket *>::iterator chooseNext(BurstQueue &q);

    /**
     * The (QoS) FR-FCFS rule as one entry-by-entry scan: the oldest
     * row hit on a bank under its access cap, else the burst whose
     * estimated ready tick is earliest, oldest first on ties; with
     * FrFcfsPrio, tier by tier. Plain FR-FCFS takes counter-driven
     * fast paths instead, which debug builds check against this.
     */
    std::vector<DRAMPacket *>::iterator scanQueue(BurstQueue &q) const;

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

    /** Apply the page policy after a column access to @p pkt's bank. */
    void applyPagePolicy(const DRAMPacket &pkt);

    void processRefreshEvent();

    /** Refresh one rank (perRankRefresh mode). */
    void refreshRank(unsigned rank_idx);

    /** Rotating per-bank refresh (refmgr-pb plugin mode). */
    void processPerBankRefreshEvent();

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

    /** Wake the blocked requestor if queue space freed up. */
    void retryBlockedReq();

    /** Fold elapsed time into the queue-occupancy integrals. */
    void touchQueueStats();

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

    static constexpr unsigned kRowKeyBits = 48;

    static std::uint64_t
    packKey(unsigned flat_bank, std::uint64_t row)
    {
        return (static_cast<std::uint64_t>(flat_bank) << kRowKeyBits) |
               row;
    }

    /**
     * One direction's pending bursts, oldest first, and the scheduling
     * state kept exact alongside them; the read and the write queue
     * are two instances. Capacity is reserved to the limit, so scans
     * run over contiguous pointers and enqueue/dequeue never allocate;
     * selection erases from the middle, an O(n) move bounded by the
     * small queue depth.
     */
    struct BurstQueue
    {
        /**
         * Count against the flat (rank-major) open rows @p open_row
         * and reserve @p max_bursts entries.
         */
        void init(const std::vector<std::uint64_t> &open_row,
                  unsigned banks_per_rank, unsigned max_bursts);

        std::size_t size() const { return entries.size(); }
        bool empty() const { return entries.empty(); }

        /** Append @p dp and count it. */
        void add(DRAMPacket *dp);
        /** Remove the entry at @p it, uncount it and return it. */
        DRAMPacket *take(std::vector<DRAMPacket *>::iterator it);
        /** Zero the hit count of @p flat_bank, whose row just closed. */
        void rowClosed(unsigned flat_bank);
        /** Recount the hits on @p flat_bank, which just opened @p row. */
        void rowOpened(unsigned flat_bank, std::uint64_t row);
        /** Recount every counter from the entries; assert they match. */
        void check();

        std::vector<DRAMPacket *> entries;
        /**
         * Packed (flat bank, row) key of each entry. Row-hit recounts
         * after an activate scan this flat integer array (one
         * vectorisable equality sweep) instead of every packet.
         */
        std::vector<std::uint64_t> keys;
        /**
         * Per flat bank: queued bursts for the bank, and how many of
         * them hit its open row. The hit total tells plain FR-FCFS
         * whether it can stop at the oldest hit without estimating
         * ready ticks; the adaptive page policies read the counts.
         */
        std::vector<std::uint32_t> bankCounts;
        std::vector<std::uint32_t> hitCounts;
        unsigned hitTotal = 0;
        /** Buffer size: the most bursts the queue may hold. */
        unsigned limit = 0;
        /** Bursts served since the bus last turned to this queue. */
        unsigned servedThisTurn = 0;

      private:
        unsigned
        flatOf(const DRAMPacket &dp) const
        {
            return dp.rank * banksPerRank_ + dp.bank;
        }

        const std::vector<std::uint64_t> *openRow_ = nullptr;
        unsigned banksPerRank_ = 0;
        /** check()'s per-bank (bursts, hits) recount, sized once. */
        std::vector<std::uint32_t> recount_;
    };

    BurstQueue readQ_;
    BurstQueue writeQ_;

    /** The queue the data bus currently serves. */
    BurstQueue &
    busQueue()
    {
        return busState_ == BusState::Read ? readQ_ : writeQ_;
    }

    /** Write queue entry covering the burst window at @p burst_addr. */
    DRAMPacket *findWriteEntry(Addr burst_addr) const;

    /** Scratch for one no-hit decision: each bank's miss estimate. */
    std::vector<Tick> missEst_;

    /** Flat (rank-major) index of @p bank in rank @p rank. */
    unsigned flatIdx(unsigned rank, unsigned bank) const
    {
        return rank * cfg_.org.banksPerRank + bank;
    }

    /** The bank's open row reached the per-row access cap. */
    bool
    rowCapped(unsigned flat_bank) const
    {
        return cfg_.maxAccessesPerRow > 0 &&
               bankRowAccesses_[flat_bank] >= cfg_.maxAccessesPerRow;
    }

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

    Tick lastQStatUpdate_ = 0;

    EventFunctionWrapper nextReqEvent_;
    EventFunctionWrapper refreshEvent_;

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
