#include "dram/dram_ctrl.hh"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

#include "ckpt/ckpt.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace dramctrl {

DRAMCtrl::CtrlStats::CtrlStats(DRAMCtrl &ctrl)
    : readReqs(&ctrl.statGroup(), "readReqs",
               "read requests accepted"),
      writeReqs(&ctrl.statGroup(), "writeReqs",
                "write requests accepted"),
      readBursts(&ctrl.statGroup(), "readBursts",
                 "read bursts (including write-queue hits)"),
      writeBursts(&ctrl.statGroup(), "writeBursts",
                  "write bursts (including merged)"),
      servicedByWrQ(&ctrl.statGroup(), "servicedByWrQ",
                    "read bursts forwarded from the write queue"),
      mergedWrBursts(&ctrl.statGroup(), "mergedWrBursts",
                     "write bursts merged into queued bursts"),
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
      numRdRetry(&ctrl.statGroup(), "numRdRetry",
                 "reads refused on a full read queue"),
      numWrRetry(&ctrl.statGroup(), "numWrRetry",
                 "writes refused on a full write queue"),
      totQLat(&ctrl.statGroup(), "totQLat",
              "total read-burst queueing time (ticks)"),
      totSvcLat(&ctrl.statGroup(), "totSvcLat",
                "total read-burst service time (ticks)"),
      totMemAccLat(&ctrl.statGroup(), "totMemAccLat",
                   "total read-burst access time (ticks)"),
      prechargeAllTime(&ctrl.statGroup(), "prechargeAllTime",
                       "time with every bank precharged (ticks)"),
      powerDownTime(&ctrl.statGroup(), "powerDownTime",
                    "time in precharge power-down (ticks)"),
      powerDownEntries(&ctrl.statGroup(), "powerDownEntries",
                       "power-down entries"),
      selfRefreshTime(&ctrl.statGroup(), "selfRefreshTime",
                      "time in self-refresh (ticks)"),
      selfRefreshEntries(&ctrl.statGroup(), "selfRefreshEntries",
                         "self-refresh entries"),
      rdQOccupancyTicks(&ctrl.statGroup(), "rdQOccupancyTicks",
                        "time-weighted read queue occupancy"),
      wrQOccupancyTicks(&ctrl.statGroup(), "wrQOccupancyTicks",
                        "time-weighted write queue occupancy"),
      rdPerTurnAround(&ctrl.statGroup(), "rdPerTurnAround",
                      "reads serviced per bus turnaround"),
      wrPerTurnAround(&ctrl.statGroup(), "wrPerTurnAround",
                      "writes drained per write episode"),
      lat(&ctrl.statGroup(), "lat", "read"),
      perBankRdBursts(&ctrl.statGroup(), "perBankRdBursts",
                      "read bursts per bank",
                      ctrl.cfg_.org.totalBanks()),
      perBankWrBursts(&ctrl.statGroup(), "perBankWrBursts",
                      "write bursts per bank",
                      ctrl.cfg_.org.totalBanks()),
      rowHitRate(&ctrl.statGroup(), "rowHitRate",
                 "fraction of DRAM bursts hitting an open row",
                 [this] {
                     double serviced = readBursts.value() -
                                       servicedByWrQ.value() +
                                       writeBursts.value() -
                                       mergedWrBursts.value();
                     return serviced > 0 ? (readRowHits.value() +
                                            writeRowHits.value()) /
                                               serviced
                                         : 0.0;
                 }),
      busUtil(&ctrl.statGroup(), "busUtil",
              "data bus utilisation, both directions",
              [&ctrl] { return ctrl.busUtilisation(); }),
      busUtilRead(&ctrl.statGroup(), "busUtilRead",
                  "data bus utilisation by reads",
                  [this, &ctrl] {
                      double w = toSeconds(ctrl.curTick() -
                                           ctrl.windowStart_);
                      return w > 0 ? bytesRead.value() / 1e9 /
                                         ctrl.peakBandwidthGBs() / w
                                   : 0.0;
                  }),
      busUtilWrite(&ctrl.statGroup(), "busUtilWrite",
                   "data bus utilisation by writes",
                   [this, &ctrl] {
                       double w = toSeconds(ctrl.curTick() -
                                            ctrl.windowStart_);
                       return w > 0 ? bytesWritten.value() / 1e9 /
                                          ctrl.peakBandwidthGBs() / w
                                    : 0.0;
                   }),
      avgRdQLen(&ctrl.statGroup(), "avgRdQLen",
                "time-weighted average read queue length",
                [this, &ctrl] {
                    double w = static_cast<double>(
                        ctrl.curTick() - ctrl.windowStart_);
                    return w > 0 ? rdQOccupancyTicks.value() / w : 0.0;
                }),
      avgWrQLen(&ctrl.statGroup(), "avgWrQLen",
                "time-weighted average write queue length",
                [this, &ctrl] {
                    double w = static_cast<double>(
                        ctrl.curTick() - ctrl.windowStart_);
                    return w > 0 ? wrQOccupancyTicks.value() / w : 0.0;
                }),
      avgQLatNs(&ctrl.statGroup(), "avgQLatNs",
                "average read-burst queueing latency (ns)",
                [this] {
                    double n = readBursts.value() - servicedByWrQ.value();
                    return n > 0 ? toNs(static_cast<Tick>(
                                       totQLat.value())) / n
                                 : 0.0;
                }),
      avgMemAccLatNs(&ctrl.statGroup(), "avgMemAccLatNs",
                     "average read-burst access latency (ns)",
                     [this] {
                         double n = readBursts.value() -
                                    servicedByWrQ.value();
                         return n > 0 ? toNs(static_cast<Tick>(
                                            totMemAccLat.value())) / n
                                      : 0.0;
                     }),
      avgRdBWGBs(&ctrl.statGroup(), "avgRdBWGBs",
                 "achieved read bandwidth (GByte/s)",
                 [this, &ctrl] {
                     double w = toSeconds(ctrl.curTick() -
                                          ctrl.windowStart_);
                     return w > 0 ? bytesRead.value() / 1e9 / w : 0.0;
                 }),
      avgWrBWGBs(&ctrl.statGroup(), "avgWrBWGBs",
                 "achieved write bandwidth (GByte/s)",
                 [this, &ctrl] {
                     double w = toSeconds(ctrl.curTick() -
                                          ctrl.windowStart_);
                     return w > 0 ? bytesWritten.value() / 1e9 / w : 0.0;
                 }),
      peakBWGBs(&ctrl.statGroup(), "peakBWGBs",
                "theoretical peak bandwidth (GByte/s)",
                [&ctrl] { return ctrl.peakBandwidthGBs(); })
{
}

DRAMCtrl::DRAMCtrl(Simulator &sim, std::string name,
                   DRAMCtrlConfig config, AddrRange range)
    : MemCtrlBase(sim, std::move(name)), cfg_(config), range_(range),
      decoder_(cfg_.org, cfg_.addrMapping),
      port_(this->name() + ".port", *this),
      respQueue_(*this, "respQueue.sendEvent", Event::kResponsePriority,
                 port_),
      nextReqEvent_([this] { processNextReqEvent(); },
                    this->name() + ".nextReqEvent"),
      refreshEvent_([this] { processRefreshEvent(); },
                    this->name() + ".refreshEvent",
                    Event::kRefreshPriority)
{
    cfg_.check();

    if (range_.localSize() != cfg_.org.channelCapacity)
        fatal("controller '%s': address range provides %llu bytes but "
              "the DRAM organisation has %llu",
              this->name().c_str(),
              static_cast<unsigned long long>(range_.localSize()),
              static_cast<unsigned long long>(cfg_.org.channelCapacity));

    ranks_.resize(cfg_.org.ranksPerChannel);
    for (Rank &rank : ranks_)
        rank.actWindow.init(cfg_.timing.activationLimit);

    const unsigned total_banks = cfg_.org.totalBanks();
    bankOpenRow_.assign(total_banks, kNoRow);
    bankPreAllowedAt_.assign(total_banks, 0);
    bankActAllowedAt_.assign(total_banks, 0);
    bankColAllowedAt_.assign(total_banks, 0);
    bankRowAccesses_.assign(total_banks, 0);
    hasBankGroups_ = cfg_.org.hasBankGroups();
    if (hasBankGroups_) {
        const unsigned total_groups =
            cfg_.org.ranksPerChannel * cfg_.org.bankGroupsPerRank;
        grpColAllowedAt_.assign(total_groups, 0);
        grpNextActAt_.assign(total_groups, 0);
    }
    missEst_.assign(total_banks, 0);
    readQ_.init(bankOpenRow_, cfg_.org.banksPerRank, cfg_.readBufferSize);
    writeQ_.init(bankOpenRow_, cfg_.org.banksPerRank,
                 cfg_.writeBufferSize);

    plugins_ = plugin::buildChain(cfg_, statGroup(), this->name());
    refMgr_ = plugins_.refreshManager();
    pracPlugin_ = plugins_.prac();

    stats_ = std::make_unique<CtrlStats>(*this);
    statGroup().onDump([this] { plugins_.onStatsDump(); });
    statGroup().onReset([this] {
        windowStart_ = curTick();
        // A fresh window starts from the current (unknown-split) state;
        // treat "now" as the precharge-accounting origin.
        allBanksPreSince_ = curTick();
        lastQStatUpdate_ = curTick();
    });
}

DRAMCtrl::~DRAMCtrl()
{
    if (nextReqEvent_.scheduled())
        deschedule(nextReqEvent_);
    if (refreshEvent_.scheduled())
        deschedule(refreshEvent_);

    std::unordered_set<BurstHelper *> helpers;
    std::unordered_set<Packet *> unanswered;
    for (DRAMPacket *dp : readQ_.entries) {
        if (dp->burstHelper)
            helpers.insert(dp->burstHelper);
        if (dp->pkt)
            unanswered.insert(dp->pkt);
        delete dp;
    }
    for (DRAMPacket *dp : writeQ_.entries)
        delete dp;
    for (BurstHelper *h : helpers)
        delete h;
    for (Packet *pkt : unanswered) {
        while (pkt->senderState() != nullptr)
            delete pkt->popSenderState();
        delete pkt;
    }
}

void
DRAMCtrl::startup()
{
    windowStart_ = curTick();
    allBanksPreSince_ = curTick();
    lastQStatUpdate_ = curTick();
    if (cfg_.timing.tREFI > 0) {
        Tick refi = cfg_.effectiveREFI();
        if (refMgr_ && refMgr_->perBank()) {
            // The per-bank manager replaces the all-bank schedule:
            // one REFpb per rank every tREFI / banksPerRank.
            nextRefreshAt_ = curTick() + refMgr_->interval(cfg_);
            schedule(refreshEvent_, nextRefreshAt_);
        } else if (cfg_.perRankRefresh) {
            // Stagger the ranks across the interval.
            rankRefreshDue_.resize(ranks_.size());
            for (std::size_t r = 0; r < ranks_.size(); ++r)
                rankRefreshDue_[r] =
                    curTick() + refi * (r + 1) / ranks_.size();
            schedule(refreshEvent_,
                     *std::min_element(rankRefreshDue_.begin(),
                                       rankRefreshDue_.end()));
        } else {
            nextRefreshAt_ = curTick() + refi;
            schedule(refreshEvent_, nextRefreshAt_);
        }
    }
}

void
DRAMCtrl::checkpoint(ckpt::Io &io)
{
    io.check("cfgHash", ckpt::fnv1a(cfg_.describe()),
             "DRAM controller configuration");

    // Bank timing state is already flat rank-major struct-of-arrays,
    // the exact layout the checkpoint format records.
    io.lanes("bank.openRow", bankOpenRow_);
    io.lanes("bank.preAllowedAt", bankPreAllowedAt_);
    io.lanes("bank.actAllowedAt", bankActAllowedAt_);
    io.lanes("bank.colAllowedAt", bankColAllowedAt_);
    io.lanes("bank.rowAccesses", bankRowAccesses_);
    io.table("rank.nextActAt", ranks_.size(), [this](std::size_t r) {
        return std::tie(ranks_[r].nextActAt);
    });
    for (std::size_t r = 0; r < ranks_.size(); ++r)
        io.ring("rank.actWindow" + std::to_string(r), ranks_[r].actWindow);
    if (hasBankGroups_) {
        // Bank-group lanes only exist for grouped organisations.
        io.lanes("grp.colAllowedAt", grpColAllowedAt_);
        io.lanes("grp.nextActAt", grpNextActAt_);
        io.tick("nextColAllowedAt", nextColAllowedAt_);
    }

    // Unique system packets and burst helpers the read queue refers
    // to; queue entries reference them by index (0 = none). Parked
    // writes were answered on acceptance and carry neither. Entries
    // share these objects, so a restore builds the tables first and
    // then points the entries into them.
    std::vector<Packet *> pkts;
    std::unordered_map<const Packet *, std::uint64_t> pkt_idx;
    std::vector<BurstHelper *> helpers;
    std::unordered_map<const BurstHelper *, std::uint64_t> helper_idx;
    for (const DRAMPacket *dp : readQ_.entries) {
        if (dp->pkt != nullptr && pkt_idx.emplace(
                dp->pkt, pkts.size() + 1).second)
            pkts.push_back(dp->pkt);
        if (dp->burstHelper != nullptr && helper_idx.emplace(
                dp->burstHelper, helpers.size() + 1).second)
            helpers.push_back(dp->burstHelper);
    }
    std::uint64_t pkt_count = pkts.size();
    io.u64("pkts.count", pkt_count);
    pkts.resize(pkt_count);
    for (std::size_t i = 0; i < pkt_count; ++i)
        io.packet("pkts." + std::to_string(i), pkts[i]);
    std::uint64_t helper_count = helpers.size();
    io.u64("helpers.count", helper_count);
    for (std::size_t i = 0; i < helper_count; ++i) {
        if (io.restoring())
            helpers.push_back(new BurstHelper(0));
        io.fields("helpers." + std::to_string(i),
                  helpers[i]->burstCount, helpers[i]->burstsServiced);
    }

    auto walk_queue = [&](const std::string &prefix, BurstQueue &q) {
        std::uint64_t count = q.size();
        io.u64(prefix + ".count", count);
        for (std::size_t i = 0; i < count; ++i) {
            std::unique_ptr<DRAMPacket> restored;
            if (io.restoring())
                restored = std::make_unique<DRAMPacket>();
            DRAMPacket &dp = restored ? *restored : *q.entries[i];
            std::uint64_t pkt_ref =
                dp.pkt != nullptr ? pkt_idx.at(dp.pkt) : 0;
            std::uint64_t helper_ref =
                dp.burstHelper != nullptr ? helper_idx.at(dp.burstHelper)
                                          : 0;
            io.fields(prefix + "." + std::to_string(i), dp.entryTime,
                      dp.readyTime, dp.isRead, dp.requestorId, dp.rank,
                      dp.bank, dp.row, dp.col, dp.burstAddr, dp.lo, dp.hi,
                      pkt_ref, helper_ref);
            if (io.restoring()) {
                dp.pkt = pkt_ref != 0 ? pkts.at(pkt_ref - 1) : nullptr;
                dp.burstHelper =
                    helper_ref != 0 ? helpers.at(helper_ref - 1) : nullptr;
                // Replaying the enqueue against the restored bank
                // state rebuilds the packed keys and the incremental
                // row-hit/bank counters exactly.
                q.add(restored.release());
            }
        }
    };
    walk_queue("rq", readQ_);
    walk_queue("wq", writeQ_);

    bool bus_write = busState_ == BusState::Write;
    io.flag("busStateWrite", bus_write);
    busState_ = bus_write ? BusState::Write : BusState::Read;
    io.tick("busBusyUntil", busBusyUntil_);
    io.tick("nextReqTime", nextReqTime_);
    io.tick("nextRdCmdAt", nextRdCmdAt_);
    io.tick("nextWrDataAt", nextWrDataAt_);
    io.flag("lastBurstWasRead", lastBurstWasRead_);
    io.u64("readsThisTime", readQ_.servedThisTurn);
    io.u64("writesThisTime", writeQ_.servedThisTurn);
    io.flag("retryReq", retryReq_);
    io.tick("nextRefreshAt", nextRefreshAt_);
    io.list("rankRefreshDue", rankRefreshDue_);
    io.tick("refNotBefore", refNotBefore_);
    io.tick("poweredDownAt", poweredDownAt_);
    io.tick("wakeConstraint", wakeConstraint_);
    io.u64("numBanksActive", numBanksActive_);
    io.tick("allBanksPreSince", allBanksPreSince_);
    io.tick("windowStart", windowStart_);
    io.tick("lastQStatUpdate", lastQStatUpdate_);

    respQueue_.checkpoint(io, "respq");
    io.event("nextReqEvent", eventq(), nextReqEvent_);
    io.event("refreshEvent", eventq(), refreshEvent_);

    plugins_.checkpoint(io);
}

bool
DRAMCtrl::idle() const
{
    // Parked writes have already been acknowledged (early write
    // response), so only unanswered reads count as outstanding work.
    return readQ_.empty() && respQueue_.empty();
}

double
DRAMCtrl::busUtilisation() const
{
    double w = toSeconds(curTick() - windowStart_);
    if (w <= 0)
        return 0.0;
    return (stats_->bytesRead.value() + stats_->bytesWritten.value()) /
           1e9 / peakBandwidthGBs() / w;
}

PowerInputs
DRAMCtrl::powerInputs() const
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
    in.prechargeAllTime = static_cast<Tick>(
        stats_->prechargeAllTime.value());
    in.powerDownTime =
        static_cast<Tick>(stats_->powerDownTime.value());
    in.selfRefreshTime =
        static_cast<Tick>(stats_->selfRefreshTime.value());
    double w = toSeconds(in.window);
    if (w > 0) {
        double peak_bytes = peakBandwidthGBs() * 1e9;
        in.readBusFraction = stats_->bytesRead.value() / peak_bytes / w;
        in.writeBusFraction =
            stats_->bytesWritten.value() / peak_bytes / w;
    }
    return in;
}

double
DRAMCtrl::achievedBandwidthGBs() const
{
    double w = toSeconds(curTick() - windowStart_);
    if (w <= 0)
        return 0.0;
    return (stats_->bytesRead.value() + stats_->bytesWritten.value()) /
           1e9 / w;
}

unsigned
DRAMCtrl::burstCountFor(Addr local_addr, unsigned size) const
{
    std::uint64_t burst_size = cfg_.org.burstSize();
    Addr first = local_addr / burst_size;
    Addr last = (local_addr + size - 1) / burst_size;
    return static_cast<unsigned>(last - first + 1);
}

DRAMCtrl::DRAMPacket *
DRAMCtrl::makeDRAMPacket(Packet *pkt, Addr lo, Addr hi,
                         bool is_read) const
{
    auto *dp = new DRAMPacket;
    dp->pkt = pkt;
    dp->isRead = is_read;
    if (pkt != nullptr)
        dp->requestorId = pkt->requestorId();
    dp->lo = lo;
    dp->hi = hi;
    dp->burstAddr = decoder_.burstAlign(lo);
    DRAMAddr da = decoder_.decode(dp->burstAddr);
    dp->rank = da.rank;
    dp->bank = da.bank;
    dp->row = da.row;
    dp->col = da.col;
    return dp;
}

void
DRAMCtrl::armPowerDown()
{
    if (!cfg_.enablePowerDown || poweredDownAt_ != kMaxTick)
        return;

    // Precharge power-down requires all banks closed; include the time
    // to close any open rows in the entry point. The rows themselves
    // are only given up if the power-down is later confirmed (see
    // exitPowerDown), so a request arriving inside the delay window
    // still enjoys its open pages.
    Tick entry = std::max(curTick(), busBusyUntil_);
    for (std::size_t flat = 0; flat < bankOpenRow_.size(); ++flat) {
        if (bankOpenRow_[flat] != kNoRow)
            entry = std::max(entry,
                             std::max(curTick(),
                                      bankPreAllowedAt_[flat]) +
                                 cfg_.timing.tRP);
    }
    poweredDownAt_ = entry + cfg_.powerDownDelay;
    TRACE(Power, "%s: power-down armed for %llu", name().c_str(),
          static_cast<unsigned long long>(poweredDownAt_));
}

Tick
DRAMCtrl::exitPowerDown(Tick now)
{
    if (!cfg_.enablePowerDown || poweredDownAt_ == kMaxTick)
        return 0;
    if (now < poweredDownAt_) {
        // Activity resumed before the entry threshold: disarm.
        poweredDownAt_ = kMaxTick;
        return 0;
    }

    TRACE(Power, "%s: waking from power-down entered at %llu",
          name().c_str(),
          static_cast<unsigned long long>(poweredDownAt_));

    // Power-down confirmed: the idle controller closed its open rows
    // on the way in (retroactively, since the model is lazy).
    for (unsigned flat = 0; flat < bankOpenRow_.size(); ++flat) {
        if (bankOpenRow_[flat] != kNoRow)
            prechargeBank(flat,
                          std::max(bankPreAllowedAt_[flat],
                                   poweredDownAt_ -
                                       cfg_.powerDownDelay));
    }

    // The episode may have deepened into self-refresh.
    Tick sr_at = poweredDownAt_ + cfg_.selfRefreshDelay;
    bool in_sr = cfg_.enableSelfRefresh && now >= sr_at;
    if (in_sr) {
        stats_->powerDownTime +=
            static_cast<double>(sr_at - poweredDownAt_);
        stats_->selfRefreshTime += static_cast<double>(now - sr_at);
        ++stats_->selfRefreshEntries;
    } else {
        stats_->powerDownTime +=
            static_cast<double>(now - poweredDownAt_);
    }
    ++stats_->powerDownEntries;
    poweredDownAt_ = kMaxTick;
    return now + (in_sr ? cfg_.tXS : cfg_.tXP);
}

bool
DRAMCtrl::recvTimingReq(Packet *pkt)
{
    DC_ASSERT(pkt->isRequest(), "controller received %s",
              pkt->toString().c_str());
    if (!range_.contains(pkt->addr()))
        panic("controller '%s' received misrouted packet %s",
              name().c_str(), pkt->toString().c_str());

    if (cfg_.enablePowerDown) {
        Tick wake = exitPowerDown(curTick());
        if (wake != 0)
            wakeConstraint_ = std::max(wakeConstraint_, wake);
    }

    touchQueueStats();

    Addr local = range_.removeIntlvBits(pkt->addr());
    unsigned pkt_count = burstCountFor(local, pkt->size());

    // A packet spanning more bursts than the whole queue can never be
    // accepted; refusing it would retry forever (a silent deadlock the
    // differential fuzzer once shrank to a single unaligned request).
    // Fail fast and name the knob instead.
    const bool read = pkt->isRead();
    const char *dir = read ? "read" : "write";
    BurstQueue &q = read ? readQ_ : writeQ_;
    if (pkt_count > q.limit)
        fatal("%s: %s spans %u bursts but the %s queue only holds %u; "
              "increase %sBufferSize",
              name().c_str(), pkt->toString().c_str(), pkt_count, dir,
              q.limit, dir);

    if (q.size() + pkt_count > q.limit) {
        TRACE(DRAMCtrl, "%s: refuse %s, %s queue full (%zu)",
              name().c_str(), pkt->toString().c_str(), dir, q.size());
        ++(read ? stats_->numRdRetry : stats_->numWrRetry);
        retryReq_ = true;
        return false;
    }
    TRACE(DRAMCtrl, "%s: accept %s (%u bursts)", name().c_str(),
          pkt->toString().c_str(), pkt_count);
    if (auto *ct = obs::chromeTracer())
        ct->beginSpan(name(), pkt->id(),
                      std::string(dir) + " " + std::to_string(pkt->addr()),
                      curTick());
    ++(read ? stats_->readReqs : stats_->writeReqs);
    if (!plugins_.empty())
        plugins_.onEnqueue({read, pkt->addr(), pkt->size(), curTick()});
    if (read) {
        addToReadQueue(pkt, local);
    } else {
        addToWriteQueue(pkt, local);
        // Early write response (Section II-A): acknowledge as soon as
        // the burst sits in the write queue. The observed latency is
        // pure frontend pipeline, so every DRAM stage is zero.
        pkt->setSpan(
            stats::LatencySpan::immediate(curTick(),
                                          cfg_.frontendLatency));
        accessAndRespond(pkt, cfg_.frontendLatency, curTick());
    }

    if (auto *ct = obs::chromeTracer()) {
        ct->counter(name(), "readQ", curTick(),
                    static_cast<double>(readQ_.size()));
        ct->counter(name(), "writeQ", curTick(),
                    static_cast<double>(writeQ_.size()));
    }

    if (!nextReqEvent_.scheduled())
        schedule(nextReqEvent_, std::max(curTick(), nextReqTime_));
    return true;
}

void
DRAMCtrl::recvRespRetry()
{
    respQueue_.resume();
}

DRAMCtrl::DRAMPacket *
DRAMCtrl::findWriteEntry(Addr burst_addr) const
{
    // Burst windows are unique in the write queue (merges coalesce),
    // so a linear scan over the small contiguous queue replaces the
    // old hash map — and with it the per-write node churn.
    for (DRAMPacket *dp : writeQ_.entries) {
        if (dp->burstAddr == burst_addr)
            return dp;
    }
    return nullptr;
}

void
DRAMCtrl::addToReadQueue(Packet *pkt, Addr local_addr)
{
    std::uint64_t burst_size = cfg_.org.burstSize();
    Addr end = local_addr + pkt->size();
    unsigned pkt_count = burstCountFor(local_addr, pkt->size());
    stats_->readBursts += pkt_count;

    // Pass 1: snoop the write queue (Section II-A): a read fully
    // covered by queued write data is serviced without touching the
    // DRAM. Counting first (instead of buffering new bursts) keeps the
    // enqueue path allocation-free.
    unsigned forwarded = 0;
    for (Addr addr = local_addr; addr < end;) {
        Addr window = decoder_.burstAlign(addr);
        Addr hi = std::min<Addr>(window + burst_size, end);
        const DRAMPacket *entry = findWriteEntry(window);
        if (entry != nullptr && entry->lo <= addr && hi <= entry->hi) {
            ++forwarded;
            ++stats_->servicedByWrQ;
        }
        addr = window + burst_size;
    }

    if (forwarded == pkt_count) {
        // Entirely satisfied by the write queue: no DRAM stage ran.
        pkt->setSpan(
            stats::LatencySpan::immediate(curTick(),
                                          cfg_.frontendLatency));
        accessAndRespond(pkt, cfg_.frontendLatency, curTick());
        return;
    }

    BurstHelper *helper = nullptr;
    if (pkt_count > 1) {
        helper = new BurstHelper(pkt_count);
        helper->burstsServiced = forwarded;
    }

    // Pass 2: enqueue the bursts the DRAM must provide.
    for (Addr addr = local_addr; addr < end;) {
        Addr window = decoder_.burstAlign(addr);
        Addr hi = std::min<Addr>(window + burst_size, end);
        const DRAMPacket *entry = findWriteEntry(window);
        if (entry == nullptr || entry->lo > addr || hi > entry->hi) {
            DRAMPacket *dp = makeDRAMPacket(pkt, addr, hi, true);
            dp->entryTime = curTick();
            dp->burstHelper = helper;
            readQ_.add(dp);
        }
        addr = window + burst_size;
    }
}

void
DRAMCtrl::addToWriteQueue(Packet *pkt, Addr local_addr)
{
    std::uint64_t burst_size = cfg_.org.burstSize();
    Addr addr = local_addr;
    Addr end = local_addr + pkt->size();
    stats_->writeBursts += burstCountFor(local_addr, pkt->size());

    while (addr < end) {
        Addr window = decoder_.burstAlign(addr);
        Addr hi = std::min<Addr>(window + burst_size, end);

        DRAMPacket *entry = findWriteEntry(window);
        if (entry != nullptr) {
            // Merge into the queued burst (Section II-A). The byte
            // coverage is tracked as a hull; this is a timing model, so
            // gaps inside the hull only make read forwarding slightly
            // optimistic.
            entry->lo = std::min(entry->lo, addr);
            entry->hi = std::max(entry->hi, hi);
            ++stats_->mergedWrBursts;
        } else {
            DRAMPacket *dp = makeDRAMPacket(nullptr, addr, hi, false);
            dp->entryTime = curTick();
            writeQ_.add(dp);
        }
        addr = window + burst_size;
    }
}

void
DRAMCtrl::BurstQueue::init(const std::vector<std::uint64_t> &open_row,
                           unsigned banks_per_rank, unsigned max_bursts)
{
    openRow_ = &open_row;
    banksPerRank_ = banks_per_rank;
    limit = max_bursts;
    bankCounts.assign(open_row.size(), 0);
    hitCounts.assign(open_row.size(), 0);
    recount_.assign(2 * open_row.size(), 0);
    // All steady-state queue traffic stays within these reservations.
    entries.reserve(max_bursts);
    keys.reserve(max_bursts);
}

void
DRAMCtrl::BurstQueue::add(DRAMPacket *dp)
{
    const unsigned flat = flatOf(*dp);
    DC_ASSERT(dp->row < (std::uint64_t(1) << kRowKeyBits),
              "row index exceeds the packed key width");
    entries.push_back(dp);
    keys.push_back(packKey(flat, dp->row));
    ++bankCounts[flat];
    if ((*openRow_)[flat] == dp->row) {
        ++hitCounts[flat];
        ++hitTotal;
    }
}

DRAMCtrl::DRAMPacket *
DRAMCtrl::BurstQueue::take(std::vector<DRAMPacket *>::iterator it)
{
    DRAMPacket *dp = *it;
    const unsigned flat = flatOf(*dp);
    --bankCounts[flat];
    if ((*openRow_)[flat] == dp->row) {
        --hitCounts[flat];
        --hitTotal;
    }
    keys.erase(keys.begin() + (it - entries.begin()));
    entries.erase(it);
    return dp;
}

void
DRAMCtrl::BurstQueue::rowClosed(unsigned flat_bank)
{
    hitTotal -= hitCounts[flat_bank];
    hitCounts[flat_bank] = 0;
}

void
DRAMCtrl::BurstQueue::rowOpened(unsigned flat_bank, std::uint64_t row)
{
    DC_ASSERT(hitCounts[flat_bank] == 0, "row opened over stale hit counts");
    if (bankCounts[flat_bank] == 0)
        return;
    auto hits = static_cast<std::uint32_t>(
        std::count(keys.begin(), keys.end(), packKey(flat_bank, row)));
    hitCounts[flat_bank] = hits;
    hitTotal += hits;
}

void
DRAMCtrl::BurstQueue::check()
{
    // recount_ holds each bank's (bursts, hits) pair.
    std::fill(recount_.begin(), recount_.end(), 0);
    unsigned hits = 0;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const DRAMPacket &dp = *entries[i];
        const unsigned flat = flatOf(dp);
        DC_ASSERT(keys[i] == packKey(flat, dp.row),
                  "entry %zu's packed key is stale", i);
        ++recount_[2 * flat];
        if ((*openRow_)[flat] == dp.row) {
            ++recount_[2 * flat + 1];
            ++hits;
        }
    }
    for (unsigned flat = 0; flat < bankCounts.size(); ++flat)
        DC_ASSERT(bankCounts[flat] == recount_[2 * flat] &&
                      hitCounts[flat] == recount_[2 * flat + 1],
                  "bank %u counts %u bursts, %u hits; its entries %u, %u",
                  flat, bankCounts[flat], hitCounts[flat],
                  recount_[2 * flat], recount_[2 * flat + 1]);
    DC_ASSERT(hitTotal == hits, "hit total %u, the entries hold %u",
              hitTotal, hits);
}

Tick
DRAMCtrl::activationWindowConstraint(const Rank &rank,
                                     Tick act_tick) const
{
    unsigned limit = cfg_.timing.activationLimit;
    if (limit == 0 || rank.actWindow.size() < limit)
        return act_tick;
    return std::max(act_tick, rank.actWindow.front() + cfg_.timing.tXAW);
}

void
DRAMCtrl::recordActivate(Rank &rank, Tick act_tick)
{
    rank.nextActAt = std::max(rank.nextActAt,
                              act_tick + cfg_.timing.tRRD);
    // The ring is sized to the activation limit, so overwriting the
    // oldest launch tick is exactly the old push-then-trim.
    if (cfg_.timing.activationLimit > 0)
        rank.actWindow.push_back_overwrite(act_tick);
}

void
DRAMCtrl::prechargeBank(unsigned flat, Tick pre_tick)
{
    DC_ASSERT(bankOpenRow_[flat] != kNoRow,
              "precharging a closed bank");
    logCmd(pre_tick, DRAMCmd::Pre, flat / cfg_.org.banksPerRank,
           flat % cfg_.org.banksPerRank);
    readQ_.rowClosed(flat);
    writeQ_.rowClosed(flat);
    bankOpenRow_[flat] = kNoRow;
    bankRowAccesses_[flat] = 0;
    Tick pre_done = pre_tick + cfg_.timing.tRP;
    bankActAllowedAt_[flat] =
        std::max(bankActAllowedAt_[flat], pre_done);
    refNotBefore_ = std::max(refNotBefore_, pre_done);
    ++stats_->numPrecharges;
    bankPrecharged(pre_done);
    if (auto *ct = obs::chromeTracer()) {
        ct->counter(name(), "openBanks", pre_done,
                    static_cast<double>(numBanksActive_));
        ct->counter(name() + ".banks", "bank" + std::to_string(flat),
                    pre_done, 0.0);
    }
}

Tick
DRAMCtrl::pracMitigate(unsigned flat_bank, unsigned rank, unsigned bank,
                       Tick act_from)
{
    if (pracPlugin_ == nullptr ||
        !pracPlugin_->mitigationPending(flat_bank) || testSkipPrac_)
        return act_from;
    // The mitigation refresh targets the (closed) bank: @p act_from
    // already covers tRP after any precharge, so it doubles as the
    // earliest legal REFm launch. The RefM record clears the plugin's
    // pending flag as it flows through onCommand.
    Tick ref_at = act_from;
    logCmd(ref_at, DRAMCmd::RefM, rank, bank);
    return ref_at + pracPlugin_->tRFM();
}

void
DRAMCtrl::bankActivated(Tick act_tick)
{
    if (numBanksActive_ == 0 && act_tick > allBanksPreSince_)
        stats_->prechargeAllTime += static_cast<double>(
            act_tick - allBanksPreSince_);
    ++numBanksActive_;
}

void
DRAMCtrl::bankPrecharged(Tick pre_done_tick)
{
    DC_ASSERT(numBanksActive_ > 0, "precharge with no active banks");
    --numBanksActive_;
    if (numBanksActive_ == 0)
        allBanksPreSince_ = pre_done_tick;
}

Tick
DRAMCtrl::estimateReadyTick(const DRAMPacket &pkt) const
{
    unsigned flat = flatIdx(pkt.rank, pkt.bank);
    if (bankOpenRow_[flat] == pkt.row)
        return std::max(colAllowedAt(flat), curTick());

    return estimateBankReady(pkt.rank, pkt.bank);
}

Tick
DRAMCtrl::estimateBankReady(unsigned rank_idx, unsigned bank_idx) const
{
    // Precharge (if a row is open), then activate, then the column
    // command tRCD later; the activate also waits for the rank's tRRD
    // and tXAW limits and, with bank groups, the group's tRRD_L.
    const DRAMTiming &t = cfg_.timing;
    const Rank &rank = ranks_[rank_idx];
    const unsigned flat = flatIdx(rank_idx, bank_idx);
    const Tick now = curTick();
    Tick awc = 0;
    if (t.activationLimit != 0 &&
        rank.actWindow.size() >= t.activationLimit)
        awc = rank.actWindow.front() + t.tXAW;
    Tick grp_act = hasBankGroups_ ? grpNextActAt_[grpIdx(flat)] : 0;
    if (bankOpenRow_[flat] != kNoRow)
        return std::max({bankPreAllowedAt_[flat] + t.tRP, rank.nextActAt,
                         grp_act, awc, now + t.tRP}) +
               t.tRCD;
    return std::max({bankActAllowedAt_[flat], rank.nextActAt, grp_act,
                     awc, now}) +
           t.tRCD;
}

unsigned
DRAMCtrl::priorityOf(const DRAMPacket &pkt) const
{
    if (cfg_.schedPolicy != SchedPolicy::FrFcfsPrio)
        return 0;
    if (pkt.requestorId < cfg_.requestorPriorities.size())
        return cfg_.requestorPriorities[pkt.requestorId];
    return 0;
}

std::vector<DRAMCtrl::DRAMPacket *>::iterator
DRAMCtrl::chooseNext(BurstQueue &q)
{
    DC_ASSERT(!q.empty(), "choosing from an empty queue");
    auto &queue = q.entries;

    if (cfg_.schedPolicy == SchedPolicy::Fcfs || queue.size() == 1)
        return queue.begin();
    if (cfg_.schedPolicy != SchedPolicy::FrFcfs)
        return scanQueue(q);

    // Plain FR-FCFS has two counter-driven fast paths.
    auto pick = queue.end();
    if (q.hitTotal > 0) {
        // A row hit is queued: the winner is the oldest one on a bank
        // under its access cap, no ready ticks needed.
        pick = std::find_if(queue.begin(), queue.end(),
                            [this](const DRAMPacket *dp) {
                                unsigned flat = flatIdx(dp->rank, dp->bank);
                                return bankOpenRow_[flat] == dp->row &&
                                       !rowCapped(flat);
                            });
    }
    if (pick == queue.end()) {
        // No usable hit, so every entry's estimate is a pure function
        // of its bank: queued hits can only sit on capped banks, where
        // they all share the column-path estimate, and misses share
        // the bank's activate estimate. Take the minimum over banks
        // that have queued bursts here (far fewer than queue entries),
        // keeping each miss estimate, then return the oldest burst
        // achieving it.
        const auto &bank_counts = q.bankCounts;
        const auto &hit_counts = q.hitCounts;
        const unsigned nbanks = cfg_.org.banksPerRank;
        const Tick now = curTick();
        Tick best_ready = kMaxTick;
        for (unsigned flat = 0; flat < bank_counts.size(); ++flat) {
            if (bank_counts[flat] == 0)
                continue;
            if (hit_counts[flat] > 0)
                best_ready =
                    std::min(best_ready, std::max(colAllowedAt(flat), now));
            if (bank_counts[flat] > hit_counts[flat]) {
                missEst_[flat] =
                    estimateBankReady(flat / nbanks, flat % nbanks);
                best_ready = std::min(best_ready, missEst_[flat]);
            }
        }
        pick = std::find_if(
            queue.begin(), queue.end(), [&](const DRAMPacket *dp) {
                unsigned flat = flatIdx(dp->rank, dp->bank);
                return (bankOpenRow_[flat] == dp->row
                            ? std::max(colAllowedAt(flat), now)
                            : missEst_[flat]) == best_ready;
            });
        DC_ASSERT(pick != queue.end(),
                  "no burst matches the minimum estimate");
    }
#ifndef NDEBUG
    DC_ASSERT(pick == scanQueue(q),
              "FR-FCFS fast path picked entry %ld, the scan entry %ld",
              static_cast<long>(pick - queue.begin()),
              static_cast<long>(scanQueue(q) - queue.begin()));
#endif
    return pick;
}

std::vector<DRAMCtrl::DRAMPacket *>::iterator
DRAMCtrl::scanQueue(BurstQueue &q) const
{
    // FR-FCFS: prefer the oldest row hit; otherwise the request whose
    // bank is ready first (Section II-C). The QoS variant searches
    // priority tier by tier, so a high-priority conflict beats a
    // low-priority row hit.
    const bool prio_sched = cfg_.schedPolicy == SchedPolicy::FrFcfsPrio;
    auto &queue = q.entries;
    auto best = queue.end();
    auto best_hit = queue.end();
    Tick best_ready = kMaxTick;
    unsigned best_prio = 0;
    unsigned best_hit_prio = 0;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        const DRAMPacket &dp = **it;
        unsigned flat = flatIdx(dp.rank, dp.bank);
        unsigned prio = priorityOf(dp);
        if (bankOpenRow_[flat] == dp.row && !rowCapped(flat)) {
            if (!prio_sched)
                return it; // plain FR-FCFS: oldest row hit wins
            if (best_hit == queue.end() || prio > best_hit_prio) {
                best_hit = it;
                best_hit_prio = prio;
            }
            continue;
        }
        Tick ready = estimateReadyTick(dp);
        if (best == queue.end() || prio > best_prio ||
            (prio == best_prio && ready < best_ready)) {
            best_ready = ready;
            best = it;
            best_prio = prio;
        }
    }

    if (best_hit != queue.end() &&
        (best == queue.end() || best_hit_prio >= best_prio))
        return best_hit;
    return best;
}

void
DRAMCtrl::doDRAMAccess(DRAMPacket *pkt)
{
    const DRAMTiming &t = cfg_.timing;
    Rank &rank = ranks_[pkt->rank];
    const unsigned flat_bank = flatIdx(pkt->rank, pkt->bank);

    bool row_hit = bankOpenRow_[flat_bank] == pkt->row;
    if (!row_hit) {
        if (bankOpenRow_[flat_bank] != kNoRow)
            prechargeBank(flat_bank,
                          std::max(curTick(),
                                   bankPreAllowedAt_[flat_bank]));

        Tick act = std::max({curTick(), bankActAllowedAt_[flat_bank],
                             rank.nextActAt, wakeConstraint_});
        if (hasBankGroups_)
            act = std::max(act, grpNextActAt_[grpIdx(flat_bank)]);
        // A pending RowHammer mitigation must land before this ACT.
        act = pracMitigate(flat_bank, pkt->rank, pkt->bank, act);
        act = activationWindowConstraint(rank, act);
        recordActivate(rank, act);
        // Same-group activates additionally respect tRRD_L.
        if (hasBankGroups_) {
            Tick &g = grpNextActAt_[grpIdx(flat_bank)];
            g = std::max(g, act + t.tRRDLong());
        }
        bankActivated(act);
        ++stats_->numActs;
        logCmd(act, DRAMCmd::Act, pkt->rank, pkt->bank, pkt->row);

        bankOpenRow_[flat_bank] = pkt->row;
        bankRowAccesses_[flat_bank] = 0;
        bankColAllowedAt_[flat_bank] = act + t.tRCD;
        bankPreAllowedAt_[flat_bank] = act + t.tRAS;
        readQ_.rowOpened(flat_bank, pkt->row);
        writeQ_.rowOpened(flat_bank, pkt->row);
        if (auto *ct = obs::chromeTracer()) {
            ct->counter(name(), "openBanks", act,
                        static_cast<double>(numBanksActive_));
            ct->counter(name() + ".banks",
                        "bank" + std::to_string(flat_bank), act, 1.0);
        }
    }

    // Column access: constrained by the bank, the shared data bus, and
    // the read/write turnaround timings (Section II-B). The three
    // intermediate ticks are the attribution stamps: bank_ready is
    // when the bank alone would let the column command go, cmd_at is
    // when it actually goes (turnaround/wake stalls on top), and
    // data_start is when the bus is free for the data.
    Tick bank_ready = std::max(colAllowedAt(flat_bank), curTick());
    Tick cmd_at;
    Tick data_start;
    if (pkt->isRead) {
        cmd_at = std::max({bank_ready, nextRdCmdAt_, wakeConstraint_});
        data_start = std::max(cmd_at + t.tCL, busBusyUntil_);
    } else {
        cmd_at = std::max(bank_ready, wakeConstraint_);
        data_start = std::max({cmd_at + t.tCL, busBusyUntil_,
                               nextWrDataAt_});
    }
    Tick data_done = data_start + t.tBURST;
    busBusyUntil_ = data_done;
    pkt->readyTime = data_done;
    if (auto *ct = obs::chromeTracer()) {
        // Bus-occupancy counter track: 1 while a burst's data is on
        // the wire. Back-to-back bursts toggle at the same tick.
        ct->counter(name(), "busBusy", data_start, 1.0);
        ct->counter(name(), "busBusy", data_done, 0.0);
    }
    TRACE(DRAMCtrl,
          "%s: %s burst rank %u bank %u row %llu %s, data %llu-%llu",
          name().c_str(), pkt->isRead ? "RD" : "WR", pkt->rank,
          pkt->bank, static_cast<unsigned long long>(pkt->row),
          row_hit ? "hit" : "miss",
          static_cast<unsigned long long>(data_start),
          static_cast<unsigned long long>(data_done));
    logCmd(data_start - t.tCL,
           pkt->isRead ? DRAMCmd::Rd : DRAMCmd::Wr, pkt->rank,
           pkt->bank, pkt->row);
    if (!plugins_.empty())
        plugins_.onBurstComplete({pkt->isRead, pkt->rank, pkt->bank,
                                  pkt->row, pkt->col, data_done});

    if (pkt->isRead) {
        nextWrDataAt_ = std::max(nextWrDataAt_, data_done + t.tRTW);
        bankPreAllowedAt_[flat_bank] =
            std::max(bankPreAllowedAt_[flat_bank], data_done);
    } else {
        nextRdCmdAt_ = std::max(nextRdCmdAt_, data_done + t.tWTR);
        bankPreAllowedAt_[flat_bank] =
            std::max(bankPreAllowedAt_[flat_bank], data_done + t.tWR);
    }
    lastBurstWasRead_ = pkt->isRead;

    // The burst occupies the bank's column path for tBURST (tCCD).
    // With bank groups the *effective* command tick (data_start - tCL,
    // the tick logCmd stamped) additionally blocks the whole group for
    // tCCD_L and the channel for tCCD_S; without groups both collapse
    // into the per-bank tBURST term below.
    Tick eff_cmd = data_start - t.tCL;
    bankColAllowedAt_[flat_bank] =
        std::max(bankColAllowedAt_[flat_bank],
                 eff_cmd + t.tCCDLong());
    if (hasBankGroups_) {
        Tick &g = grpColAllowedAt_[grpIdx(flat_bank)];
        g = std::max(g, eff_cmd + t.tCCDLong());
        nextColAllowedAt_ =
            std::max(nextColAllowedAt_, eff_cmd + t.tCCDShort());
    }
    ++bankRowAccesses_[flat_bank];

    std::uint64_t burst_size = cfg_.org.burstSize();
    if (pkt->isRead) {
        if (row_hit)
            ++stats_->readRowHits;
        stats_->perBankRdBursts[flat_bank] += 1;
        stats_->bytesRead += static_cast<double>(burst_size);
        stats_->totQLat += static_cast<double>(curTick() -
                                               pkt->entryTime);
        stats_->totSvcLat += static_cast<double>(data_done - curTick());
        stats_->totMemAccLat += static_cast<double>(data_done -
                                                    pkt->entryTime);
        // Attribution span: the stamps above decompose exactly the
        // controller's read latency, data_done - entryTime plus the
        // static front/back-end latency. For a chopped packet
        // every burst overwrites the span; the burst that completes
        // the response (the last one, since data_done is monotonic on
        // the shared bus) is the one the requestor sees.
        stats::LatencySpan span;
        span.enqueue = pkt->entryTime;
        span.pick = curTick();
        span.bankReady = bank_ready;
        span.issue = cmd_at;
        span.burstStart = data_start;
        span.done = data_done;
        span.staticLat = cfg_.frontendLatency + cfg_.backendLatency;
        span.valid = true;
        stats_->lat.record(span);
        if (pkt->pkt != nullptr)
            pkt->pkt->setSpan(span);
    } else {
        if (row_hit)
            ++stats_->writeRowHits;
        stats_->perBankWrBursts[flat_bank] += 1;
        stats_->bytesWritten += static_cast<double>(burst_size);
    }

    applyPagePolicy(*pkt);
}

void
DRAMCtrl::applyPagePolicy(const DRAMPacket &pkt)
{
    const unsigned flat = flatIdx(pkt.rank, pkt.bank);
    DC_ASSERT(bankOpenRow_[flat] == pkt.row, "page policy on stale row");

    // The adaptive policies read the bank's counters in both queues:
    // queued hits on the open row, and queued bursts for the bank
    // (hits + conflicts).
    const bool hits_queued =
        readQ_.hitCounts[flat] + writeQ_.hitCounts[flat] > 0;
    bool auto_precharge = false;
    switch (cfg_.pagePolicy) {
      case PagePolicy::Closed:
        auto_precharge = true;
        break;
      case PagePolicy::ClosedAdaptive:
        // Keep the row open only when more accesses to it are queued.
        auto_precharge = !hits_queued;
        break;
      case PagePolicy::Open:
        break;
      case PagePolicy::OpenAdaptive:
        // Close early when a conflicting access waits and nothing more
        // wants this row.
        auto_precharge =
            !hits_queued &&
            readQ_.bankCounts[flat] + writeQ_.bankCounts[flat] > 0;
        break;
    }

    if (auto_precharge)
        prechargeBank(flat,
                      std::max(curTick(), bankPreAllowedAt_[flat]));
}

void
DRAMCtrl::accessAndRespond(Packet *pkt, Tick static_latency,
                           Tick ready_time)
{
    pkt->makeResponse();
    respQueue_.deliver(std::max(curTick(), ready_time) + static_latency,
                       pkt, 0);
}

void
DRAMCtrl::retryBlockedReq()
{
    if (retryReq_) {
        retryReq_ = false;
        port_.sendReqRetry();
    }
}

void
DRAMCtrl::touchQueueStats()
{
    Tick now = curTick();
    if (now > lastQStatUpdate_) {
        double dt = static_cast<double>(now - lastQStatUpdate_);
        stats_->rdQOccupancyTicks +=
            static_cast<double>(readQ_.size()) * dt;
        stats_->wrQOccupancyTicks +=
            static_cast<double>(writeQ_.size()) * dt;
    }
    lastQStatUpdate_ = now;
}

void
DRAMCtrl::processNextReqEvent()
{
    const auto low_entries = static_cast<std::size_t>(
        cfg_.writeLowThreshold * cfg_.writeBufferSize);
    const auto high_entries = static_cast<std::size_t>(
        cfg_.writeHighThreshold * cfg_.writeBufferSize);

    // Stage 1: read/write switching (Section II-C write drain mode).
    const bool reading = busState_ == BusState::Read;
    bool turn;
    if (reading) {
        // Forced switch at the high watermark; with no reads pending,
        // drain from the low watermark.
        turn = writeQ_.size() >= high_entries ||
               (readQ_.empty() && !writeQ_.empty() &&
                writeQ_.size() >= low_entries);
    } else {
        // Back to reads when the writes ran out, or when the minimum
        // burst of writes drained below the low watermark with reads
        // waiting.
        turn = writeQ_.empty() ||
               (!readQ_.empty() &&
                writeQ_.servedThisTurn >= cfg_.minWritesPerSwitch &&
                writeQ_.size() < low_entries);
    }
    if (turn) {
        BurstQueue &ending = busQueue();
        if (ending.servedThisTurn > 0)
            (reading ? stats_->rdPerTurnAround : stats_->wrPerTurnAround)
                .sample(ending.servedThisTurn);
        ending.servedThisTurn = 0;
        busState_ = reading ? BusState::Write : BusState::Read;
    }

    // Stage 2: service one burst in the current direction. A read
    // burst answers its packet once the packet's last burst is done;
    // writes were answered when they were accepted.
    touchQueueStats();
    BurstQueue &q = busQueue();
    if (!q.empty()) {
        DRAMPacket *pkt = q.take(chooseNext(q));
        doDRAMAccess(pkt);
        ++q.servedThisTurn;
#ifndef NDEBUG
        readQ_.check();
        writeQ_.check();
#endif
        BurstHelper *helper = pkt->burstHelper;
        if (pkt->pkt != nullptr &&
            (helper == nullptr ||
             ++helper->burstsServiced == helper->burstCount)) {
            accessAndRespond(pkt->pkt,
                             cfg_.frontendLatency + cfg_.backendLatency,
                             pkt->readyTime);
            delete helper;
        }
        delete pkt;
        retryBlockedReq();
    }

    // Stage 3: decide whether and when to wake up again. Writes parked
    // below the low watermark with no reads pending are intentionally
    // not actionable: they stay on chip until more traffic arrives
    // (Section II-C). The wake-up is early enough that the worst-case
    // bank preparation (precharge + activate + column) for the next
    // burst can overlap the tail of the current data transfer.
    bool actionable =
        !readQ_.empty() ||
        (busState_ == BusState::Write && !writeQ_.empty()) ||
        (!writeQ_.empty() &&
         writeQ_.size() >= std::max<std::size_t>(low_entries, 1));

    Tick prep = cfg_.timing.tRP + cfg_.timing.tRCD + cfg_.timing.tCL;
    nextReqTime_ = busBusyUntil_ > prep ? busBusyUntil_ - prep : 0;

    if (actionable && !nextReqEvent_.scheduled())
        schedule(nextReqEvent_, std::max(curTick(), nextReqTime_));
    else if (!actionable)
        armPowerDown();
}

void
DRAMCtrl::refreshRank(unsigned rank_idx)
{
    const DRAMTiming &t = cfg_.timing;

    // Only this rank's banks must be closed; the bus must be quiet so
    // no in-flight data to this rank overlaps the refresh (shared-bus
    // conservatism: transfers to other ranks also push this out).
    const unsigned lo = rank_idx * cfg_.org.banksPerRank;
    const unsigned hi = lo + cfg_.org.banksPerRank;
    Tick start = std::max(curTick(), busBusyUntil_);
    for (unsigned flat = lo; flat < hi; ++flat) {
        if (bankOpenRow_[flat] != kNoRow)
            start = std::max(start, bankPreAllowedAt_[flat]);
    }
    for (unsigned flat = lo; flat < hi; ++flat) {
        if (bankOpenRow_[flat] != kNoRow)
            prechargeBank(flat,
                          std::max(start, bankPreAllowedAt_[flat]));
    }
    start = std::max(start, refNotBefore_);

    Tick done = start + t.tRFC;
    TRACE(Refresh, "%s: REF rank %u at %llu, done %llu",
          name().c_str(), rank_idx,
          static_cast<unsigned long long>(start),
          static_cast<unsigned long long>(done));
    logCmd(start, DRAMCmd::Ref, rank_idx, 0);
    for (unsigned flat = lo; flat < hi; ++flat)
        bankActAllowedAt_[flat] = std::max(bankActAllowedAt_[flat],
                                           done);
    ++stats_->numRefreshes;
}

void
DRAMCtrl::processPerBankRefreshEvent()
{
    // refmgr-pb mode: one REFpb per rank each interval, rotating
    // through the banks so every bank refreshes once per tREFI. Only
    // the target bank needs to be closed — the rest of the rank keeps
    // serving requests, which is the whole point of per-bank refresh.
    const unsigned bank = refMgr_->advance();
    for (unsigned r = 0; r < ranks_.size(); ++r) {
        const unsigned flat = flatIdx(r, bank);
        if (flat == testStallRefPbFlat_)
            continue; // fault injection: starve this bank
        if (bankOpenRow_[flat] != kNoRow)
            prechargeBank(flat,
                          std::max(curTick(),
                                   bankPreAllowedAt_[flat]));
        // bankActAllowedAt_ covers tRP after the precharge, so it is
        // also the earliest legal REFpb launch.
        Tick ref_at = std::max(curTick(), bankActAllowedAt_[flat]);
        logCmd(ref_at, DRAMCmd::RefPb, r, bank);
        Tick busy = static_cast<Tick>(
            static_cast<double>(refMgr_->tRFCpb()) * testTRFCpbScale_);
        bankActAllowedAt_[flat] =
            std::max(bankActAllowedAt_[flat], ref_at + busy);
        ++stats_->numRefreshes;
    }
    nextRefreshAt_ += refMgr_->interval(cfg_);
    schedule(refreshEvent_, std::max(nextRefreshAt_, curTick() + 1));
}

void
DRAMCtrl::processRefreshEvent()
{
    const DRAMTiming &t = cfg_.timing;

    if (refMgr_ && refMgr_->perBank()) {
        processPerBankRefreshEvent();
        return;
    }

    // A device in self-refresh refreshes itself: the controller skips
    // its REF and just keeps the schedule ticking.
    if (cfg_.enableSelfRefresh && poweredDownAt_ != kMaxTick &&
        curTick() >= poweredDownAt_ + cfg_.selfRefreshDelay) {
        Tick refi = cfg_.effectiveREFI();
        if (cfg_.perRankRefresh) {
            for (Tick &due : rankRefreshDue_) {
                while (due <= curTick())
                    due += refi;
            }
            schedule(refreshEvent_,
                     *std::min_element(rankRefreshDue_.begin(),
                                       rankRefreshDue_.end()));
        } else {
            nextRefreshAt_ += refi;
            schedule(refreshEvent_,
                     std::max(nextRefreshAt_, curTick() + 1));
        }
        return;
    }

    // A refresh does not end a power-down episode: a real controller
    // briefly raises CKE, refreshes the (already closed) banks and
    // drops back to sleep — the lazy power-down state carries across,
    // which is also what lets a long episode deepen into self-refresh.
    if (cfg_.perRankRefresh) {
        Tick refi = cfg_.effectiveREFI();
        for (std::size_t r = 0; r < ranks_.size(); ++r) {
            if (curTick() >= rankRefreshDue_[r]) {
                refreshRank(static_cast<unsigned>(r));
                rankRefreshDue_[r] += refi;
            }
        }
        if (cfg_.enablePowerDown && readQ_.empty() && writeQ_.empty())
            armPowerDown();
        Tick next = *std::min_element(rankRefreshDue_.begin(),
                                      rankRefreshDue_.end());
        schedule(refreshEvent_, std::max(next, curTick() + 1));
        return;
    }

    // All banks must be precharged and the data bus quiet before the
    // refresh can launch (Section II-B: refreshes cause latency spikes).
    Tick start = std::max({curTick(), busBusyUntil_, wakeConstraint_});
    bool any_open = false;
    for (std::size_t flat = 0; flat < bankOpenRow_.size(); ++flat) {
        if (bankOpenRow_[flat] != kNoRow) {
            any_open = true;
            start = std::max(start, bankPreAllowedAt_[flat]);
        }
    }

    if (any_open) {
        for (unsigned flat = 0; flat < bankOpenRow_.size(); ++flat) {
            if (bankOpenRow_[flat] != kNoRow)
                prechargeBank(flat,
                              std::max(start,
                                       bankPreAllowedAt_[flat]));
        }
    } else if (numBanksActive_ == 0) {
        // Idle window up to the refresh: account precharge-standby time
        // and restart accounting after the refresh completes.
        Tick quiet_until = std::max(start, refNotBefore_);
        if (quiet_until > allBanksPreSince_)
            stats_->prechargeAllTime += static_cast<double>(
                quiet_until - allBanksPreSince_);
    }

    // The refresh launches tRP after the last precharge anywhere —
    // including the drain precharges just issued (prechargeBank folded
    // their completion into refNotBefore_).
    start = std::max(start, refNotBefore_);

    Tick done = start + t.tRFC;
    TRACE(Refresh, "%s: REF all %zu ranks at %llu, done %llu",
          name().c_str(), ranks_.size(),
          static_cast<unsigned long long>(start),
          static_cast<unsigned long long>(done));
    for (unsigned r = 0; r < ranks_.size(); ++r)
        logCmd(start, DRAMCmd::Ref, r, 0);
    for (std::size_t flat = 0; flat < bankOpenRow_.size(); ++flat)
        bankActAllowedAt_[flat] = std::max(bankActAllowedAt_[flat],
                                           done);
    allBanksPreSince_ = done;
    ++stats_->numRefreshes;

    // Arm power-down after the refresh if nothing is pending (an
    // already-running episode is left untouched so it can deepen into
    // self-refresh).
    if (cfg_.enablePowerDown && poweredDownAt_ == kMaxTick &&
        readQ_.empty() && writeQ_.empty())
        poweredDownAt_ = done + cfg_.powerDownDelay;

    nextRefreshAt_ += cfg_.effectiveREFI();
    schedule(refreshEvent_, std::max(nextRefreshAt_, curTick() + 1));
}

} // namespace dramctrl
