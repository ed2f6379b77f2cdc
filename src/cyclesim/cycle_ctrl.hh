/**
 * @file
 * Cycle-based DRAM controller — the DRAMSim2-style comparator.
 *
 * This is the "state of the art" the paper validates against
 * (Section III): a controller that steps the DRAM clock cycle by cycle
 * and models explicit commands. Its deliberate architectural contrasts
 * with the event-based DRAMCtrl are the ones the paper calls out:
 *
 *  - a unified transaction queue instead of split read/write queues,
 *  - per-bank command queues holding explicit ACT/PRE/RD/WR commands,
 *  - reads and writes serviced interleaved in arrival order — no write
 *    drain mode, so no bimodal read latency (Fig. 7) and less room to
 *    reschedule writes (Fig. 5),
 *  - one tick of work every DRAM clock cycle from startup, busy or
 *    idle, as DRAMSim2 is clocked — the source of the simulation-speed
 *    gap (Section III-D). Idle-time refreshes take the same path as
 *    busy-time ones.
 *
 * A tick costs O(banks) plus a first-fit pass over the transaction
 * queue: each transaction carries the decoded coordinates of its next
 * burst (decoded once per burst, not once per cycle), the pass skips
 * transactions whose bank has no free command slot, and a pass that
 * queued nothing is not repeated until a bank gains a slot, a tail row
 * is reset or a transaction arrives. The model still ticks every
 * cycle; only the per-cycle constant shrinks.
 *
 * Writes are acknowledged on acceptance, like the event model, since
 * the paper notes both models respond to writes immediately.
 */

#ifndef DRAMCTRL_CYCLESIM_CYCLE_CTRL_H
#define DRAMCTRL_CYCLESIM_CYCLE_CTRL_H

#include <memory>
#include <string>
#include <vector>

#include "cyclesim/bank_state.hh"
#include "cyclesim/command_queue.hh"
#include "dram/addr_decoder.hh"
#include "dram/cmd_log.hh"
#include "dram/dram_config.hh"
#include "dram/plugin/plugin.hh"
#include "mem/addr_range.hh"
#include "mem/mem_ctrl_iface.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "sim/pool.hh"
#include "sim/simulator.hh"
#include "stats/latency_attr.hh"
#include "stats/stats.hh"

namespace dramctrl {
namespace cyclesim {

/** A request being processed by the cycle-based controller. */
struct CycleTransaction : public Pooled<CycleTransaction>
{
    Packet *pkt = nullptr;
    bool isRead = true;
    Tick entryTime = 0;
    Addr localAddr = 0;
    unsigned size = 0;
    unsigned burstsTotal = 0;
    unsigned burstsQueued = 0;
    unsigned burstsDone = 0;
    /**
     * Attribution stamps: tick of the last decomposition into the
     * command queues (pickTime) and of the last column command issue
     * (issueTime). For multi-burst transactions the last burst wins —
     * it is the one that completes the response.
     */
    Tick pickTime = 0;
    Tick issueTime = 0;
    /**
     * Decoded coordinates of the next burst to queue and its flat bank
     * index (rank * banksPerRank + bank); valid while burstsQueued <
     * burstsTotal. Derived state: rebuilt on checkpoint restore.
     */
    DRAMAddr next;
    unsigned nextBank = 0;
};

class CycleDRAMCtrl : public MemCtrlBase
{
  public:
    /**
     * @param sim the owning simulator
     * @param name instance name
     * @param config same structure the event model takes; fatal when
     *               it uses a feature unsupportedFeature() names
     * @param range the address range this controller responds to
     * @param cmd_queue_depth per-bank command queue entries
     */
    CycleDRAMCtrl(Simulator &sim, std::string name,
                  DRAMCtrlConfig config, AddrRange range,
                  unsigned cmd_queue_depth = 8);
    ~CycleDRAMCtrl() override;

    /**
     * The one declaration of what this comparator cannot simulate: the
     * first feature of @p cfg it lacks, by name, or nullptr.
     */
    static const char *unsupportedFeature(const DRAMCtrlConfig &cfg);

    bool idle() const override;

    std::size_t queuedRequests() const override
    {
        return transQueue_.size();
    }

    void startup() override;

    void checkpoint(ckpt::Io &io) override;

    /** Statistics mirror of the subset shared with the event model. */
    struct CtrlStats
    {
        explicit CtrlStats(CycleDRAMCtrl &ctrl);

        stats::Scalar readReqs;
        stats::Scalar writeReqs;
        stats::Scalar readBursts;
        stats::Scalar writeBursts;
        stats::Scalar readRowHits;
        stats::Scalar writeRowHits;
        stats::Scalar numActs;
        stats::Scalar numPrecharges;
        stats::Scalar numRefreshes;
        stats::Scalar bytesRead;
        stats::Scalar bytesWritten;
        stats::Scalar numRetries;
        stats::Scalar totMemAccLat;
        stats::Scalar prechargeAllTime;
        stats::Scalar numCycles;
        stats::Formula rowHitRate;
        stats::Formula busUtil;
        /** Per-stage read latency attribution (see latency_attr.hh). */
        stats::StageLatencyStats lat;
    };

    const CtrlStats &ctrlStats() const { return *stats_; }

    /**
     * Test-only fault injection: skip the PRAC mitigation refresh
     * (see DRAMCtrl::testSkipPracMitigation). Never call outside tests.
     */
    void testSkipPracMitigation() { testSkipPrac_ = true; }

  private:
    bool recvTimingReq(Packet *pkt) override;

    /** One DRAM clock cycle of controller work. */
    void tick();

    /** Update refresh state; true while a refresh blocks the banks. */
    void serviceRefresh();

    /** Move (at most one) transaction into the command queues. */
    void decomposeTransactions();

    /** Heal command-queue heads invalidated by a refresh. */
    void repairQueueHeads();

    /** Issue at most one DRAM command this cycle. */
    void issueCommand();

    bool isIssuable(const Command &cmd) const;
    void execute(const Command &cmd);

    /** Decode the coordinates of @p trans's next burst. */
    void decodeNextBurst(CycleTransaction &trans) const;

    /** Current tick of cycle @p c. */
    Tick tickOf(Cycle c) const { return anchor_ + c * cfg_.timing.tCK; }

    void burstCompleted(CycleTransaction *trans, Tick data_done_tick);

    CycleTiming ct_;

    std::vector<CycleTransaction *> transQueue_;
    std::size_t transQueueLimit_;
    CommandQueue cmdQueue_;
    /** Per flat bank: row it will hold once its queued commands run. */
    std::vector<std::uint64_t> tailRows_;
    /** Per flat bank: free command slots at the last decomposition. */
    std::vector<unsigned> freeSlots_;
    /**
     * Transaction-queue length at the last decomposition scan that
     * queued nothing, or kRescan. Derived state, never checkpointed: a
     * restored controller simply rescans.
     */
    static constexpr std::size_t kRescan = ~std::size_t(0);
    std::size_t failedScanLen_ = kRescan;

    std::vector<CycleBankState> banks_;
    std::vector<CycleRankState> rankState_;

    /**
     * Bank-group lanes, armed only for grouped organisations (see
     * DRAMCtrl's identically-named state): same-group column (tCCD_L)
     * and activate (tRRD_L) constraints, (rank * groups + group)
     * indexed, plus the channel-wide short column spacing (tCCD_S).
     */
    bool hasBankGroups_ = false;
    std::vector<Cycle> grpNextCol_;
    std::vector<Cycle> grpNextAct_;
    Cycle nextColAnyBank_ = 0;

    /** Flat bank-group index of bank @p b in rank @p r. */
    unsigned
    grpIdx(unsigned r, unsigned b) const
    {
        return r * cfg_.org.bankGroupsPerRank + cfg_.org.bankGroup(b);
    }

    Cycle cycle_ = 0;
    Tick anchor_ = 0;

    /** Data bus reservation, in cycles. */
    Cycle busBusyUntil_ = 0;
    bool lastDataWasRead_ = true;
    /** Earliest cycle a read command may issue (tWTR). */
    Cycle readAllowedAt_ = 0;

    Cycle refreshCountdown_;
    bool refreshPending_ = false;
    /** Earliest cycle a refresh may issue (tRP after any precharge). */
    Cycle refNotBefore_ = 0;

    unsigned nextBankRR_ = 0;
    bool retryReq_ = false;

    EventFunctionWrapper tickEvent_;

    plugin::PracPlugin *pracPlugin_ = nullptr;
    bool testSkipPrac_ = false;

    std::unique_ptr<CtrlStats> stats_;
};

} // namespace cyclesim
} // namespace dramctrl

#endif // DRAMCTRL_CYCLESIM_CYCLE_CTRL_H
