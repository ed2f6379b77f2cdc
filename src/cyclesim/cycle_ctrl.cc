#include "cyclesim/cycle_ctrl.hh"

#include <algorithm>
#include <utility>

#include "ckpt/ckpt.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace cyclesim {

CycleDRAMCtrl::CtrlStats::CtrlStats(CycleDRAMCtrl &ctrl)
    : readReqs(&ctrl.statGroup(), "readReqs", "read requests accepted"),
      writeReqs(&ctrl.statGroup(), "writeReqs",
                "write requests accepted"),
      readBursts(&ctrl.statGroup(), "readBursts", "read bursts"),
      writeBursts(&ctrl.statGroup(), "writeBursts", "write bursts"),
      readRowHits(&ctrl.statGroup(), "readRowHits",
                  "read bursts that hit an open row"),
      writeRowHits(&ctrl.statGroup(), "writeRowHits",
                   "write bursts that hit an open row"),
      numActs(&ctrl.statGroup(), "numActs", "activate commands"),
      numPrecharges(&ctrl.statGroup(), "numPrecharges",
                    "precharge commands"),
      numRefreshes(&ctrl.statGroup(), "numRefreshes",
                   "refresh commands"),
      bytesRead(&ctrl.statGroup(), "bytesRead",
                "bytes moved by read bursts"),
      bytesWritten(&ctrl.statGroup(), "bytesWritten",
                   "bytes moved by write bursts"),
      numRetries(&ctrl.statGroup(), "numRetries",
                 "requests refused on a full transaction queue"),
      totMemAccLat(&ctrl.statGroup(), "totMemAccLat",
                   "total read access time (ticks)"),
      prechargeAllTime(&ctrl.statGroup(), "prechargeAllTime",
                       "time with every bank precharged (ticks)"),
      numCycles(&ctrl.statGroup(), "numCycles",
                "DRAM clock cycles simulated"),
      rowHitRate(&ctrl.statGroup(), "rowHitRate",
                 "fraction of bursts hitting an open row",
                 [this] {
                     double n = readBursts.value() + writeBursts.value();
                     return n > 0 ? (readRowHits.value() +
                                     writeRowHits.value()) /
                                        n
                                  : 0.0;
                 }),
      busUtil(&ctrl.statGroup(), "busUtil",
              "data bus utilisation, both directions",
              [&ctrl] { return ctrl.busUtilisation(); }),
      lat(&ctrl.statGroup(), "lat", "read")
{
}

const char *
CycleDRAMCtrl::unsupportedFeature(const DRAMCtrlConfig &cfg)
{
    if (cfg.pagePolicy == PagePolicy::OpenAdaptive ||
        cfg.pagePolicy == PagePolicy::ClosedAdaptive)
        return toString(cfg.pagePolicy);
    if (cfg.enableSelfRefresh)
        return "self-refresh";
    if (cfg.enablePowerDown)
        return "power-down";
    if (cfg.perRankRefresh)
        return "per-rank refresh";
    if (cfg.hasPlugin("refmgr-pb"))
        return "refmgr-pb";
    return nullptr;
}

CycleDRAMCtrl::CycleDRAMCtrl(Simulator &sim, std::string name,
                             DRAMCtrlConfig config, AddrRange range,
                             unsigned cmd_queue_depth)
    : MemCtrlBase(sim, std::move(name)), cfg_(config), range_(range),
      decoder_(cfg_.org, cfg_.addrMapping), ct_(cfg_.timing),
      port_(this->name() + ".port", *this),
      respQueue_(*this, "respQueue.sendEvent", Event::kResponsePriority,
                 port_),
      transQueueLimit_(cfg_.readBufferSize + cfg_.writeBufferSize),
      cmdQueue_(cfg_.org.ranksPerChannel, cfg_.org.banksPerRank,
                cmd_queue_depth),
      tailRows_(cfg_.org.totalBanks(), CycleBankState::kNoRow),
      freeSlots_(cfg_.org.totalBanks(), 0),
      banks_(cfg_.org.totalBanks()),
      rankState_(cfg_.org.ranksPerChannel),
      refreshCountdown_(ct_.tREFI),
      tickEvent_([this] { tick(); }, this->name() + ".tickEvent")
{
    cfg_.check();
    // Apply the temperature derating to the refresh interval.
    if (cfg_.timing.tREFI > 0) {
        ct_.tREFI = divCeil<Tick>(cfg_.effectiveREFI(),
                                  cfg_.timing.tCK);
        refreshCountdown_ = ct_.tREFI;
    }
    if (const char *feature = unsupportedFeature(cfg_))
        fatal("cycle-based controller '%s' does not support %s",
              this->name().c_str(), feature);
    if (range_.localSize() != cfg_.org.channelCapacity)
        fatal("controller '%s': address range provides %llu bytes but "
              "the DRAM organisation has %llu",
              this->name().c_str(),
              static_cast<unsigned long long>(range_.localSize()),
              static_cast<unsigned long long>(cfg_.org.channelCapacity));
    transQueue_.reserve(transQueueLimit_);
    for (CycleRankState &rs : rankState_)
        rs.actWindow.init(ct_.activationLimit);
    hasBankGroups_ = cfg_.org.hasBankGroups();
    if (hasBankGroups_) {
        const unsigned total_groups =
            cfg_.org.ranksPerChannel * cfg_.org.bankGroupsPerRank;
        grpNextCol_.assign(total_groups, 0);
        grpNextAct_.assign(total_groups, 0);
    }
    plugins_ = plugin::buildChain(cfg_, statGroup(), this->name());
    pracPlugin_ = plugins_.prac();

    stats_ = std::make_unique<CtrlStats>(*this);
    statGroup().onDump([this] { plugins_.onStatsDump(); });
    statGroup().onReset([this] { windowStart_ = curTick(); });
}

CycleDRAMCtrl::~CycleDRAMCtrl()
{
    if (tickEvent_.scheduled())
        deschedule(tickEvent_);

    auto release = [](CycleTransaction *t) {
        if (t->pkt) {
            while (t->pkt->senderState() != nullptr)
                delete t->pkt->popSenderState();
            delete t->pkt;
        }
        delete t;
    };

    std::vector<CycleTransaction *> seen;
    for (CycleTransaction *t : transQueue_) {
        if (std::find(seen.begin(), seen.end(), t) == seen.end())
            seen.push_back(t);
    }
    // Transactions referenced only from command queues.
    for (unsigned r = 0; r < cmdQueue_.numRanks(); ++r) {
        for (unsigned b = 0; b < cmdQueue_.numBanks(); ++b) {
            const auto &q = cmdQueue_.at(r, b);
            for (std::size_t i = 0; i < q.size(); ++i) {
                const Command &cmd = q[i];
                if (cmd.trans &&
                    std::find(seen.begin(), seen.end(), cmd.trans) ==
                        seen.end())
                    seen.push_back(cmd.trans);
            }
        }
    }
    for (CycleTransaction *t : seen)
        release(t);
}

void
CycleDRAMCtrl::startup()
{
    anchor_ = curTick();
    windowStart_ = curTick();
    idleSinceCycle_ = 0;
}

void
CycleDRAMCtrl::checkpoint(ckpt::Io &io)
{
    io.check("cfgHash", ckpt::fnv1a(cfg_.describe()),
             "cycle controller configuration");

    // Transactions are referenced from both the transaction queue and
    // the command rings; a dedup table (transaction-queue order first,
    // then command-ring scan) holds each exactly once, and references
    // become table indices. A restore builds the table first, then
    // points the queue and the rings into it.
    std::vector<CycleTransaction *> table;
    auto indexOf = [&table](CycleTransaction *t) -> std::uint64_t {
        for (std::size_t i = 0; i < table.size(); ++i) {
            if (table[i] == t)
                return i;
        }
        table.push_back(t);
        return table.size() - 1;
    };
    auto entry = [&](std::uint64_t idx) {
        if (idx >= table.size())
            fatal("checkpoint of '%s' references transaction %llu of %zu",
                  name().c_str(), static_cast<unsigned long long>(idx),
                  table.size());
        return table[idx];
    };
    for (CycleTransaction *t : transQueue_)
        indexOf(t);
    for (unsigned r = 0; r < cmdQueue_.numRanks(); ++r) {
        for (unsigned b = 0; b < cmdQueue_.numBanks(); ++b) {
            const auto &q = cmdQueue_.at(r, b);
            for (std::size_t i = 0; i < q.size(); ++i) {
                if (q[i].trans)
                    indexOf(q[i].trans);
            }
        }
    }

    std::uint64_t trans_count = table.size();
    io.u64("transCount", trans_count);
    for (std::size_t i = 0; i < trans_count; ++i) {
        if (io.restoring())
            table.push_back(new CycleTransaction);
        CycleTransaction &t = *table[i];
        io.packet(formatString("trans%zu.pkt", i), t.pkt);
        io.fields(formatString("trans%zu.f", i), t.isRead, t.entryTime,
                  t.localAddr, t.size, t.burstsTotal, t.burstsQueued,
                  t.burstsDone, t.pickTime, t.issueTime);
        if (io.restoring() && t.burstsQueued < t.burstsTotal)
            decodeNextBurst(t);
    }

    std::vector<std::uint64_t> tq;
    for (CycleTransaction *t : transQueue_)
        tq.push_back(indexOf(t));
    io.list("transQueue", tq);
    if (io.restoring()) {
        for (std::uint64_t idx : tq)
            transQueue_.push_back(entry(idx));
    }

    // One row per queued command; its transaction as index + 1 (0 =
    // none).
    struct Slot
    {
        Command cmd;
        std::uint64_t trans;
    };
    for (unsigned r = 0; r < cmdQueue_.numRanks(); ++r) {
        for (unsigned b = 0; b < cmdQueue_.numBanks(); ++b) {
            const auto &q = cmdQueue_.at(r, b);
            std::vector<Slot> slots;
            for (std::size_t i = 0; i < q.size(); ++i)
                slots.push_back(
                    {q[i], q[i].trans ? indexOf(q[i].trans) + 1 : 0});
            io.rows(formatString("cmdq.%u.%u", r, b), slots, [](Slot &s) {
                return std::tie(s.cmd.type, s.cmd.rank, s.cmd.bank,
                                s.cmd.row, s.cmd.col, s.cmd.autoPrecharge,
                                s.trans);
            });
            if (io.restoring()) {
                for (Slot &s : slots) {
                    s.cmd.trans = s.trans ? entry(s.trans - 1) : nullptr;
                    cmdQueue_.push(s.cmd);
                }
            }
        }
    }

    io.lanes("tailRows", tailRows_);
    io.table("banks", banks_.size(), [this](std::size_t i) {
        CycleBankState &bs = banks_[i];
        return std::tie(bs.openRow, bs.nextActivate, bs.nextPrecharge,
                        bs.nextRead, bs.nextWrite);
    });
    for (std::size_t r = 0; r < rankState_.size(); ++r)
        io.ring(formatString("actWindow.%zu", r), rankState_[r].actWindow);
    io.table("rankNextAct", rankState_.size(), [this](std::size_t r) {
        return std::tie(rankState_[r].nextActAnyBank);
    });

    if (hasBankGroups_) {
        // Keys only exist for grouped organisations.
        io.lanes("grpNextCol", grpNextCol_);
        io.lanes("grpNextAct", grpNextAct_);
        io.u64("nextColAnyBank", nextColAnyBank_);
    }

    io.u64("cycle", cycle_);
    io.tick("anchor", anchor_);
    io.u64("cyclesTicked", cyclesTicked_);
    io.u64("busBusyUntil", busBusyUntil_);
    io.flag("lastDataWasRead", lastDataWasRead_);
    io.u64("readAllowedAt", readAllowedAt_);
    io.u64("refreshCountdown", refreshCountdown_);
    io.flag("refreshPending", refreshPending_);
    io.u64("refNotBefore", refNotBefore_);
    io.u64("nextBankRR", nextBankRR_);
    io.flag("retryReq", retryReq_);
    io.flag("ticking", ticking_);
    io.u64("idleSinceCycle", idleSinceCycle_);
    io.tick("windowStart", windowStart_);

    respQueue_.checkpoint(io, "respq");
    io.event("tickEvent", eventq(), tickEvent_);

    plugins_.checkpoint(io);
}

bool
CycleDRAMCtrl::idle() const
{
    return transQueue_.empty() && cmdQueue_.empty() &&
           respQueue_.empty();
}

double
CycleDRAMCtrl::busUtilisation() const
{
    double w = toSeconds(curTick() - windowStart_);
    if (w <= 0)
        return 0.0;
    return (stats_->bytesRead.value() + stats_->bytesWritten.value()) /
           1e9 / peakBandwidthGBs() / w;
}

double
CycleDRAMCtrl::achievedBandwidthGBs() const
{
    double w = toSeconds(curTick() - windowStart_);
    if (w <= 0)
        return 0.0;
    return (stats_->bytesRead.value() + stats_->bytesWritten.value()) /
           1e9 / w;
}

PowerInputs
CycleDRAMCtrl::powerInputs() const
{
    PowerInputs in;
    in.window = curTick() - windowStart_;
    in.numActs = stats_->numActs.value();
    in.numPrecharges = stats_->numPrecharges.value();
    in.numRefreshes = stats_->numRefreshes.value();
    in.readBursts =
        stats_->bytesRead.value() /
        static_cast<double>(cfg_.org.burstSize());
    in.writeBursts =
        stats_->bytesWritten.value() /
        static_cast<double>(cfg_.org.burstSize());
    in.prechargeAllTime =
        static_cast<Tick>(stats_->prechargeAllTime.value());
    double w = toSeconds(in.window);
    if (w > 0) {
        double peak_bytes = peakBandwidthGBs() * 1e9;
        in.readBusFraction = stats_->bytesRead.value() / peak_bytes / w;
        in.writeBusFraction =
            stats_->bytesWritten.value() / peak_bytes / w;
    }
    return in;
}

void
CycleDRAMCtrl::decodeNextBurst(CycleTransaction &trans) const
{
    trans.next = decoder_.decode(
        decoder_.burstAlign(trans.localAddr) +
        static_cast<Addr>(trans.burstsQueued) * cfg_.org.burstSize());
    trans.nextBank =
        trans.next.rank * cfg_.org.banksPerRank + trans.next.bank;
}

bool
CycleDRAMCtrl::recvTimingReq(Packet *pkt)
{
    DC_ASSERT(pkt->isRequest(), "controller received %s",
              pkt->toString().c_str());
    if (!range_.contains(pkt->addr()))
        panic("controller '%s' received misrouted packet %s",
              name().c_str(), pkt->toString().c_str());

    if (transQueue_.size() >= transQueueLimit_) {
        TRACE(CycleCtrl, "%s: refuse %s, transaction queue full (%zu)",
              name().c_str(), pkt->toString().c_str(),
              transQueue_.size());
        ++stats_->numRetries;
        retryReq_ = true;
        return false;
    }

    TRACE(CycleCtrl, "%s: accept %s", name().c_str(),
          pkt->toString().c_str());
    if (auto *ct = obs::chromeTracer()) {
        ct->beginSpan(name(), pkt->id(),
                      std::string(pkt->isRead() ? "read " : "write ") +
                          std::to_string(pkt->addr()),
                      curTick());
        ct->counter(name(), "transQ", curTick(),
                    static_cast<double>(transQueue_.size() + 1));
    }

    Addr local = range_.removeIntlvBits(pkt->addr());
    std::uint64_t burst_size = cfg_.org.burstSize();
    Addr first = local / burst_size;
    Addr last = (local + pkt->size() - 1) / burst_size;

    auto *trans = new CycleTransaction;
    trans->pkt = pkt;
    trans->isRead = pkt->isRead();
    trans->entryTime = curTick();
    trans->localAddr = local;
    trans->size = pkt->size();
    trans->burstsTotal = static_cast<unsigned>(last - first + 1);
    decodeNextBurst(*trans);

    if (!plugins_.empty())
        plugins_.onEnqueue(
            {pkt->isRead(), pkt->addr(), pkt->size(), curTick()});

    if (trans->isRead) {
        ++stats_->readReqs;
        stats_->readBursts += trans->burstsTotal;
    } else {
        ++stats_->writeReqs;
        stats_->writeBursts += trans->burstsTotal;
        // Writes are acknowledged on acceptance, as in the event model.
        pkt->setSpan(
            stats::LatencySpan::immediate(curTick(),
                                          cfg_.frontendLatency));
        pkt->makeResponse();
        respQueue_.deliver(curTick() + cfg_.frontendLatency, pkt, 0);
        trans->pkt = nullptr;
    }

    transQueue_.push_back(trans);

    if (!ticking_) {
        Cycle now = (curTick() - anchor_) / cfg_.timing.tCK;
        catchUpIdleCycles(now);
        ticking_ = true;
        schedule(tickEvent_, tickOf(cycle_ + 1));
    }
    return true;
}

void
CycleDRAMCtrl::catchUpIdleCycles(Cycle now)
{
    if (now <= cycle_) {
        cycle_ = std::max(cycle_, now);
        return;
    }
    Cycle elapsed = now - cycle_;

    // Refreshes that would have happened during the idle gap: the banks
    // were quiescent, so each one simply closes any open rows and costs
    // tRFC of non-precharge-standby time.
    std::uint64_t missed = 0;
    if (ct_.tREFI > 0) {
        if (elapsed < refreshCountdown_) {
            refreshCountdown_ -= elapsed;
        } else {
            missed = 1 + (elapsed - refreshCountdown_) / ct_.tREFI;
            refreshCountdown_ =
                ct_.tREFI - (elapsed - refreshCountdown_) % ct_.tREFI;
        }
    }
    if (missed > 0) {
        stats_->numRefreshes += static_cast<double>(missed);

        // Reconstruct the idle-time refreshes: close any open rows as
        // soon as their precharge timing allowed, wait tRP, then the
        // refreshes at tREFI intervals. The final refresh may straddle
        // the resume point; its completion is carried forward as the
        // banks' activate constraint, so resumed commands wait it out.
        Cycle latest_pre = cycle_;
        for (std::size_t i = 0; i < banks_.size(); ++i) {
            CycleBankState &bank = banks_[i];
            if (bank.rowOpen()) {
                Cycle pre_c = std::max(cycle_, bank.nextPrecharge);
                latest_pre = std::max(latest_pre, pre_c);
                logCmd(tickOf(pre_c), DRAMCmd::Pre,
                       static_cast<unsigned>(i / cfg_.org.banksPerRank),
                       static_cast<unsigned>(i %
                                             cfg_.org.banksPerRank));
                bank.openRow = CycleBankState::kNoRow;
                ++stats_->numPrecharges;
            }
        }

        Cycle ref_first = std::max({latest_pre + ct_.tRP,
                                    refNotBefore_, busBusyUntil_});
        Cycle ref_last =
            ref_first + (missed - 1) * ct_.tREFI;
        for (unsigned r = 0; r < cfg_.org.ranksPerChannel; ++r) {
            logCmd(tickOf(ref_first), DRAMCmd::Ref, r, 0);
            if (missed > 1)
                logCmd(tickOf(ref_last), DRAMCmd::Ref, r, 0);
        }

        Cycle ref_done = ref_last + ct_.tRFC;
        for (CycleBankState &bank : banks_) {
            bank.nextActivate = std::max(bank.nextActivate, ref_done);
            bank.nextPrecharge = 0;
            bank.nextRead = 0;
            bank.nextWrite = 0;
        }
        for (std::uint64_t &tr : tailRows_)
            tr = CycleBankState::kNoRow;
        failedScanLen_ = kRescan;
    }

    bool all_closed = std::none_of(
        banks_.begin(), banks_.end(),
        [](const CycleBankState &b) { return b.rowOpen(); });
    if (all_closed) {
        Cycle standby = elapsed > missed * ct_.tRFC
                            ? elapsed - missed * ct_.tRFC
                            : 0;
        stats_->prechargeAllTime +=
            static_cast<double>(standby * cfg_.timing.tCK);
    }

    cycle_ = now;
}

void
CycleDRAMCtrl::tick()
{
    ++cycle_;
    ++cyclesTicked_;
    ++stats_->numCycles;

    bool all_closed = std::none_of(
        banks_.begin(), banks_.end(),
        [](const CycleBankState &b) { return b.rowOpen(); });
    if (all_closed && !refreshPending_)
        stats_->prechargeAllTime +=
            static_cast<double>(cfg_.timing.tCK);

    serviceRefresh();
    if (!refreshPending_) {
        repairQueueHeads();
        decomposeTransactions();
        issueCommand();
    }

    if (++nextBankRR_ == cfg_.org.totalBanks())
        nextBankRR_ = 0;

    if (hasWork()) {
        schedule(tickEvent_, tickOf(cycle_ + 1));
    } else {
        ticking_ = false;
        idleSinceCycle_ = cycle_;
    }
}

bool
CycleDRAMCtrl::hasWork() const
{
    return !transQueue_.empty() || !cmdQueue_.empty() ||
           refreshPending_;
}

void
CycleDRAMCtrl::serviceRefresh()
{
    if (ct_.tREFI == 0)
        return;

    if (!refreshPending_) {
        if (refreshCountdown_ > 0)
            --refreshCountdown_;
        if (refreshCountdown_ == 0)
            refreshPending_ = true;
    }
    if (!refreshPending_)
        return;

    // Drain: close one open bank per cycle (command bus) as soon as its
    // precharge timing allows, then issue the refresh.
    bool any_open = false;
    for (std::size_t i = 0; i < banks_.size(); ++i) {
        CycleBankState &bank = banks_[i];
        if (!bank.rowOpen())
            continue;
        any_open = true;
        if (cycle_ >= bank.nextPrecharge) {
            bank.precharge(cycle_, ct_);
            refNotBefore_ = std::max(refNotBefore_, cycle_ + ct_.tRP);
            ++stats_->numPrecharges;
            logCmd(tickOf(cycle_), DRAMCmd::Pre,
                   static_cast<unsigned>(i / cfg_.org.banksPerRank),
                   static_cast<unsigned>(i % cfg_.org.banksPerRank));
            break;
        }
    }
    if (any_open)
        return;
    if (cycle_ < refNotBefore_)
        return; // tRP of the last precharge still elapsing

    // All banks precharged: refresh now.
    TRACE(Refresh, "%s: REF all ranks at cycle %llu", name().c_str(),
          static_cast<unsigned long long>(cycle_));
    ++stats_->numRefreshes;
    for (unsigned r = 0; r < cfg_.org.ranksPerChannel; ++r)
        logCmd(tickOf(cycle_), DRAMCmd::Ref, r, 0);
    for (CycleBankState &bank : banks_)
        bank.nextActivate = std::max(bank.nextActivate,
                                     cycle_ + ct_.tRFC);
    for (unsigned i = 0; i < tailRows_.size(); ++i) {
        if (cmdQueue_.at(i).empty())
            tailRows_[i] = CycleBankState::kNoRow;
    }
    failedScanLen_ = kRescan;
    refreshCountdown_ = ct_.tREFI;
    refreshPending_ = false;
}

void
CycleDRAMCtrl::repairQueueHeads()
{
    // A refresh (or a forced drain precharge) may have closed a bank
    // under a queued column command; reinstate the activate it needs.
    for (unsigned i = 0; i < banks_.size(); ++i) {
        auto &q = cmdQueue_.at(i);
        if (q.empty())
            continue;
        CycleBankState &bank = banks_[i];
        // A queued precharge whose bank the refresh drain already
        // closed would never become issuable: drop it.
        while (!q.empty() && q.front().type == CmdType::Pre &&
               !bank.rowOpen())
            q.pop_front();
        if (q.empty())
            continue;
        const Command &head = q.front();
        if (head.type != CmdType::Read && head.type != CmdType::Write)
            continue;
        if (bank.openRow == head.row)
            continue;
        if (bank.rowOpen())
            q.push_front(Command{CmdType::Pre, head.rank, head.bank,
                                 bank.openRow, 0, false, nullptr});
        else
            q.push_front(Command{CmdType::Act, head.rank, head.bank,
                                 head.row, 0, false, nullptr});
    }
}

void
CycleDRAMCtrl::decomposeTransactions()
{
    // Free command slots per bank, once per cycle. Whether a
    // transaction fits depends only on its bank's free slots and tail
    // row, so a scan that found nothing is not repeated until a bank
    // gains a slot, a tail row is reset or a transaction arrives.
    bool any_free = false;
    bool gained = false;
    for (unsigned i = 0; i < freeSlots_.size(); ++i) {
        const unsigned free_slots = cmdQueue_.freeSlots(i);
        gained |= free_slots > freeSlots_[i];
        freeSlots_[i] = free_slots;
        any_free |= free_slots != 0;
    }
    if (!any_free ||
        (!gained && transQueue_.size() == failedScanLen_))
        return;

    for (auto it = transQueue_.begin(); it != transQueue_.end(); ++it) {
        CycleTransaction *trans = *it;
        const unsigned free_slots = freeSlots_[trans->nextBank];
        if (free_slots == 0)
            continue; // first-fit: skip blocked transactions

        const DRAMAddr &da = trans->next;
        std::uint64_t &tail = tailRows_[trans->nextBank];
        unsigned needed;
        bool need_pre = false;
        bool need_act = false;
        bool row_hit = false;
        if (cfg_.pagePolicy == PagePolicy::Closed) {
            need_act = true;
            needed = 2;
        } else if (tail == da.row) {
            row_hit = true;
            needed = 1;
        } else if (tail == CycleBankState::kNoRow) {
            need_act = true;
            needed = 2;
        } else {
            need_pre = true;
            need_act = true;
            needed = 3;
        }

        if (needed > free_slots)
            continue;

        if (need_pre)
            cmdQueue_.push(Command{CmdType::Pre, da.rank, da.bank, tail,
                                   0, false, nullptr});
        if (need_act)
            cmdQueue_.push(Command{CmdType::Act, da.rank, da.bank,
                                   da.row, 0, false, nullptr});

        bool auto_pre = cfg_.pagePolicy == PagePolicy::Closed;
        cmdQueue_.push(Command{trans->isRead ? CmdType::Read
                                             : CmdType::Write,
                               da.rank, da.bank, da.row, da.col,
                               auto_pre, trans});
        tail = auto_pre ? CycleBankState::kNoRow : da.row;

        if (row_hit) {
            if (trans->isRead)
                ++stats_->readRowHits;
            else
                ++stats_->writeRowHits;
        }

        failedScanLen_ = kRescan;
        ++trans->burstsQueued;
        trans->pickTime = tickOf(cycle_);
        if (trans->burstsQueued < trans->burstsTotal) {
            decodeNextBurst(*trans);
        } else {
            transQueue_.erase(it);
            if (retryReq_) {
                retryReq_ = false;
                port_.sendReqRetry();
            }
        }
        return; // at most one decomposition per cycle
    }
    failedScanLen_ = transQueue_.size();
}

bool
CycleDRAMCtrl::isIssuable(const Command &cmd) const
{
    const CycleBankState &bank =
        banks_[static_cast<std::size_t>(cmd.rank) *
                   cfg_.org.banksPerRank +
               cmd.bank];
    const CycleRankState &rank = rankState_[cmd.rank];
    Cycle c = cycle_;

    // Same-group long timings and the channel-wide short column
    // spacing; both degenerate to always-satisfied without groups.
    Cycle grp_act = 0;
    Cycle grp_col = 0;
    if (hasBankGroups_) {
        unsigned g = grpIdx(cmd.rank, cmd.bank);
        grp_act = grpNextAct_[g];
        grp_col = std::max(grpNextCol_[g], nextColAnyBank_);
    }

    switch (cmd.type) {
      case CmdType::Act:
        return !bank.rowOpen() && c >= bank.nextActivate &&
               c >= grp_act && rank.canActivate(c, ct_);
      case CmdType::Pre:
        return bank.rowOpen() && c >= bank.nextPrecharge;
      case CmdType::Read:
        return bank.openRow == cmd.row && c >= bank.nextRead &&
               c >= grp_col && c >= readAllowedAt_ &&
               c + ct_.tCL >= busBusyUntil_;
      case CmdType::Write:
        return bank.openRow == cmd.row && c >= bank.nextWrite &&
               c >= grp_col &&
               c + ct_.tCL >=
                   busBusyUntil_ + (lastDataWasRead_ ? ct_.tRTW : 0);
    }
    return false;
}

void
CycleDRAMCtrl::execute(const Command &cmd)
{
    CycleBankState &bank =
        banks_[static_cast<std::size_t>(cmd.rank) *
                   cfg_.org.banksPerRank +
               cmd.bank];
    CycleRankState &rank = rankState_[cmd.rank];
    Cycle c = cycle_;
    std::uint64_t burst_size = cfg_.org.burstSize();

    switch (cmd.type) {
      case CmdType::Act:
        bank.activate(c, cmd.row, ct_);
        rank.recordActivate(c, ct_);
        if (hasBankGroups_) {
            Cycle &g = grpNextAct_[grpIdx(cmd.rank, cmd.bank)];
            g = std::max(g, c + ct_.tRRD_L);
        }
        ++stats_->numActs;
        logCmd(tickOf(c), DRAMCmd::Act, cmd.rank, cmd.bank, cmd.row);
        break;
      case CmdType::Pre:
        bank.precharge(c, ct_);
        refNotBefore_ = std::max(refNotBefore_, c + ct_.tRP);
        ++stats_->numPrecharges;
        logCmd(tickOf(c), DRAMCmd::Pre, cmd.rank, cmd.bank);
        break;
      case CmdType::Read: {
        Cycle data_done = c + ct_.tCL + ct_.burstCycles;
        busBusyUntil_ = data_done;
        lastDataWasRead_ = true;
        // Same-bank spacing is tCCD_L (== burstCycles when ungrouped).
        bank.nextRead = std::max(bank.nextRead, c + ct_.tCCD_L);
        bank.nextWrite = std::max(bank.nextWrite, c + ct_.tCCD_L);
        if (hasBankGroups_) {
            Cycle &g = grpNextCol_[grpIdx(cmd.rank, cmd.bank)];
            g = std::max(g, c + ct_.tCCD_L);
            nextColAnyBank_ = std::max(nextColAnyBank_,
                                       c + ct_.tCCD_S);
        }
        bank.nextPrecharge = std::max(bank.nextPrecharge, data_done);
        logCmd(tickOf(c), DRAMCmd::Rd, cmd.rank, cmd.bank, cmd.row);
        if (!plugins_.empty())
            plugins_.onBurstComplete({true, cmd.rank, cmd.bank, cmd.row,
                                      cmd.col, tickOf(data_done)});
        if (cmd.autoPrecharge) {
            // The device engages auto-precharge only once tRAS (and
            // every other precharge constraint) is satisfied, not
            // blindly at data-done — on slow-tRAS parts data-done
            // can land inside the activate's tRAS window.
            Cycle pre_c = bank.nextPrecharge;
            bank.openRow = CycleBankState::kNoRow;
            bank.nextActivate = std::max(bank.nextActivate,
                                         pre_c + ct_.tRP);
            refNotBefore_ = std::max(refNotBefore_, pre_c + ct_.tRP);
            ++stats_->numPrecharges;
            logCmd(tickOf(pre_c), DRAMCmd::Pre, cmd.rank, cmd.bank);
        }
        stats_->bytesRead += static_cast<double>(burst_size);
        cmd.trans->issueTime = tickOf(c);
        burstCompleted(cmd.trans, tickOf(data_done));
        break;
      }
      case CmdType::Write: {
        Cycle data_done = c + ct_.tCL + ct_.burstCycles;
        busBusyUntil_ = data_done;
        lastDataWasRead_ = false;
        readAllowedAt_ = std::max(readAllowedAt_, data_done + ct_.tWTR);
        bank.nextRead = std::max(bank.nextRead, c + ct_.tCCD_L);
        bank.nextWrite = std::max(bank.nextWrite, c + ct_.tCCD_L);
        if (hasBankGroups_) {
            Cycle &g = grpNextCol_[grpIdx(cmd.rank, cmd.bank)];
            g = std::max(g, c + ct_.tCCD_L);
            nextColAnyBank_ = std::max(nextColAnyBank_,
                                       c + ct_.tCCD_S);
        }
        bank.nextPrecharge = std::max(bank.nextPrecharge,
                                      data_done + ct_.tWR);
        logCmd(tickOf(c), DRAMCmd::Wr, cmd.rank, cmd.bank, cmd.row);
        if (!plugins_.empty())
            plugins_.onBurstComplete({false, cmd.rank, cmd.bank,
                                      cmd.row, cmd.col,
                                      tickOf(data_done)});
        if (cmd.autoPrecharge) {
            // As for reads: honour tRAS, not just write recovery.
            Cycle pre_c = bank.nextPrecharge;
            bank.openRow = CycleBankState::kNoRow;
            bank.nextActivate = std::max(bank.nextActivate,
                                         pre_c + ct_.tRP);
            refNotBefore_ = std::max(refNotBefore_, pre_c + ct_.tRP);
            ++stats_->numPrecharges;
            logCmd(tickOf(pre_c), DRAMCmd::Pre, cmd.rank, cmd.bank);
        }
        stats_->bytesWritten += static_cast<double>(burst_size);
        cmd.trans->issueTime = tickOf(c);
        burstCompleted(cmd.trans, tickOf(data_done));
        break;
      }
    }

    if (auto *ct = obs::chromeTracer()) {
        if (cmd.type == CmdType::Act || cmd.type == CmdType::Pre ||
            cmd.autoPrecharge) {
            auto open = std::count_if(
                banks_.begin(), banks_.end(),
                [](const CycleBankState &b) { return b.rowOpen(); });
            ct->counter(name(), "openBanks", tickOf(c),
                        static_cast<double>(open));
        }
    }
}

void
CycleDRAMCtrl::issueCommand()
{
    const unsigned total = cfg_.org.totalBanks();
    auto wrap = [total](unsigned idx) {
        return idx + 1 < total ? idx + 1 : 0;
    };

    // One round-robin pass over the bank heads. Under the open-page
    // policy the first issuable column command (a row hit) wins over
    // any earlier issuable ACT/PRE; otherwise the first issuable head.
    const bool hits_first = cfg_.pagePolicy == PagePolicy::Open;
    unsigned pick = total;
    for (unsigned i = 0, idx = nextBankRR_; i < total;
         ++i, idx = wrap(idx)) {
        const auto &q = cmdQueue_.at(idx);
        if (q.empty() || !isIssuable(q.front()))
            continue;
        const CmdType type = q.front().type;
        if (!hits_first || type == CmdType::Read ||
            type == CmdType::Write) {
            pick = idx;
            break;
        }
        if (pick == total)
            pick = idx;
    }
    if (pick == total)
        return;

    auto &q = cmdQueue_.at(pick);
    const Command &head = q.front();
    if (head.type == CmdType::Act && pracPlugin_ != nullptr &&
        pracPlugin_->mitigationPending(pick) && !testSkipPrac_) {
        // RowHammer mitigation takes the command slot: the activate's
        // issuability guarantees the bank is closed and
        // precharge-settled, which is exactly REFm legality. The
        // blocked ACT retries once tRFM passes.
        CycleBankState &bank = banks_[pick];
        logCmd(tickOf(cycle_), DRAMCmd::RefM, head.rank, head.bank);
        bank.nextActivate = std::max(
            bank.nextActivate,
            cycle_ + divCeil<Cycle>(pracPlugin_->tRFM(), cfg_.timing.tCK));
        return;
    }
    Command cmd = head;
    q.pop_front();
    execute(cmd);
}

void
CycleDRAMCtrl::burstCompleted(CycleTransaction *trans,
                              Tick data_done_tick)
{
    DC_ASSERT(trans != nullptr, "column command without a transaction");
    ++trans->burstsDone;
    if (trans->burstsDone < trans->burstsTotal)
        return;

    if (trans->isRead) {
        stats_->totMemAccLat +=
            static_cast<double>(data_done_tick - trans->entryTime);

        // Attribution span. The cycle model has no scheduler-stall
        // notion distinct from the command queue: bankTiming covers the
        // whole command-queue residency (decompose to column issue) and
        // schedStall is structurally zero. The bus stage is the CAS
        // latency (tCL); the burst stage the data transfer itself.
        stats::LatencySpan span;
        span.enqueue = trans->entryTime;
        span.pick = trans->pickTime;
        span.bankReady = trans->issueTime;
        span.issue = trans->issueTime;
        span.burstStart =
            data_done_tick - ct_.burstCycles * cfg_.timing.tCK;
        span.done = data_done_tick;
        span.staticLat = cfg_.frontendLatency + cfg_.backendLatency;
        span.valid = true;
        stats_->lat.record(span);
        trans->pkt->setSpan(span);

        trans->pkt->makeResponse();
        respQueue_.deliver(data_done_tick + cfg_.frontendLatency +
                               cfg_.backendLatency,
                           trans->pkt, 0);
    }
    delete trans;
}

} // namespace cyclesim
} // namespace dramctrl
