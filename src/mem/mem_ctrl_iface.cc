#include "mem/mem_ctrl_iface.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"
#include "obs/chrome_trace.hh"
#include "sim/logging.hh"

namespace dramctrl {

MemCtrlBase::MemCtrlBase(Simulator &sim, std::string name,
                         DRAMCtrlConfig cfg, AddrRange range)
    : SimObject(sim, std::move(name)), cfg_(cfg), range_(range),
      decoder_(cfg_.org, cfg_.addrMapping),
      port_(this->name() + ".port", *this),
      respQueue_(*this, "respQueue.sendEvent", Event::kResponsePriority,
                 port_)
{
    cfg_.check();
    if (range_.localSize() != cfg_.org.channelCapacity)
        fatal("controller '%s': address range provides %llu bytes but "
              "the DRAM organisation has %llu",
              this->name().c_str(),
              static_cast<unsigned long long>(range_.localSize()),
              static_cast<unsigned long long>(cfg_.org.channelCapacity));
}

bool
MemCtrlBase::MemoryPort::recvTimingReq(Packet *pkt)
{
    DC_ASSERT(pkt->isRequest(), "controller received %s",
              pkt->toString().c_str());
    if (!ctrl_.range_.contains(pkt->addr()))
        panic("controller '%s' received misrouted packet %s",
              ctrl_.name().c_str(), pkt->toString().c_str());
    return ctrl_.recvTimingReq(pkt);
}

void
MemCtrlBase::initTally(const TallyStats &stats)
{
    tallied_ = stats;
    windowStart_ = idleSince_ = lastEnd_ = curTick();
    actAt_.assign(config().org.totalBanks(), kMaxTick);
    statGroup().onDump([this] {
        plugins_.onStatsDump();
        foldIdle();
    });
    statGroup().onReset([this] {
        // The idle time before a busy stretch is counted when its first
        // command is logged, which may precede the stretch: keep the
        // part inside the new window. Idle time before the window does
        // not count, however late the close ending the stretch comes.
        const Tick now = curTick();
        *tallied_.prechargeAllTime =
            busy_ > 0 && busySince_ > now
                ? static_cast<double>(busySince_ - std::max(idleSince_, now))
                : 0.0;
        windowStart_ = now;
        idleSince_ = std::max(idleSince_, now);
        lastEnd_ = std::max(lastEnd_, now);
        rankRefreshes_ = 0;
    });
}

void
MemCtrlBase::tally(Tick tick, DRAMCmd cmd, unsigned flat)
{
    const DRAMTiming &t = config().timing;
    switch (cmd) {
      case DRAMCmd::Act:
        DC_ASSERT(actAt_[flat] == kMaxTick, "ACT to open flat bank %u",
                  flat);
        actAt_[flat] = tick;
        ++*tallied_.numActs;
        busy(tick, kMaxTick);
        break;
      case DRAMCmd::Pre:
        // A closed bank's actAt_ is kMaxTick, so this also checks that
        // the bank is open.
        DC_ASSERT(tick >= actAt_[flat],
                  "PRE to closed flat bank %u or before its ACT", flat);
        actAt_[flat] = kMaxTick;
        ++*tallied_.numPrecharges;
        endBusy(tick + t.tRP);
        break;
      case DRAMCmd::Rd:
        *tallied_.bytesRead += static_cast<double>(config().org.burstSize());
        return;
      case DRAMCmd::Wr:
        *tallied_.bytesWritten +=
            static_cast<double>(config().org.burstSize());
        return;
      case DRAMCmd::Ref:
        ++*tallied_.numRefreshes;
        rankRefreshes_ += 1;
        busy(tick, tick + t.tRFC);
        return;
      case DRAMCmd::RefPb:
        ++*tallied_.numRefreshes;
        rankRefreshes_ += 1.0 / config().org.banksPerRank;
        busy(tick, tick + plugins_.refreshManager()->tRFCpb());
        return;
      case DRAMCmd::RefM:
        busy(tick, tick + plugins_.prac()->tRFM());
        return;
    }
    // Chrome counters at an ACT or a PRE's close: the open banks, and
    // the bank's own 0/1 series.
    if (auto *ct = obs::chromeTracer()) {
        const bool act = cmd == DRAMCmd::Act;
        const Tick at = act ? tick : tick + t.tRP;
        ct->counter(name(), "openBanks", at,
                    static_cast<double>(std::count_if(
                        actAt_.begin(), actAt_.end(),
                        [](Tick a) { return a != kMaxTick; })));
        ct->counter(name() + ".banks", "bank" + std::to_string(flat), at,
                    act ? 1.0 : 0.0);
    }
}

void
MemCtrlBase::busy(Tick start, Tick end)
{
    if (busy_++ == 0) {
        busySince_ = std::max(start, idleSince_);
        *tallied_.prechargeAllTime +=
            static_cast<double>(busySince_ - idleSince_);
    }
    if (end != kMaxTick)
        endBusy(end);
}

void
MemCtrlBase::endBusy(Tick end)
{
    lastEnd_ = std::max(lastEnd_, end);
    if (--busy_ == 0)
        idleSince_ = lastEnd_;
}

void
MemCtrlBase::foldIdle()
{
    if (busy_ == 0 && curTick() > idleSince_) {
        *tallied_.prechargeAllTime +=
            static_cast<double>(curTick() - idleSince_);
        idleSince_ = curTick();
    }
}

PowerInputs
MemCtrlBase::powerInputs() const
{
    const double burst = static_cast<double>(config().org.burstSize());
    PowerInputs in;
    in.window = curTick() - windowStart_;
    in.numActs = tallied_.numActs->value();
    in.numPrecharges = tallied_.numPrecharges->value();
    in.numRefreshes = rankRefreshes_;
    in.readBursts = tallied_.bytesRead->value() / burst;
    in.writeBursts = tallied_.bytesWritten->value() / burst;
    in.prechargeAllTime =
        static_cast<Tick>(tallied_.prechargeAllTime->value()) +
        (busy_ == 0 && curTick() > idleSince_ ? curTick() - idleSince_ : 0);
    if (tallied_.powerDownTime) {
        in.powerDownTime = static_cast<Tick>(tallied_.powerDownTime->value());
        in.selfRefreshTime =
            static_cast<Tick>(tallied_.selfRefreshTime->value());
    }
    double w = toSeconds(in.window);
    if (w > 0) {
        double peak_bytes = peakBandwidthGBs() * 1e9;
        in.readBusFraction = tallied_.bytesRead->value() / peak_bytes / w;
        in.writeBusFraction =
            tallied_.bytesWritten->value() / peak_bytes / w;
    }
    return in;
}

void
MemCtrlBase::checkpoint(ckpt::Io &io)
{
    io.tick("tally.windowStart", windowStart_);
    io.u64("tally.busy", busy_);
    io.tick("tally.idleSince", idleSince_);
    io.tick("tally.busySince", busySince_);
    io.tick("tally.lastEnd", lastEnd_);
    io.f64("tally.rankRefreshes", rankRefreshes_);
    io.lanes("tally.actAt", actAt_);
    respQueue_.checkpoint(io, "respq");
    plugins_.checkpoint(io);
}

} // namespace dramctrl
