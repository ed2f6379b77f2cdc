#include "cpu/timing_core.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dramctrl {

TimingCore::CoreStats::CoreStats(TimingCore &core)
    : committedOps(&core.statGroup(), "committedOps", "ops committed"),
      memOps(&core.statGroup(), "memOps", "memory ops issued"),
      cycles(&core.statGroup(), "cycles", "core cycles simulated"),
      memStallCycles(&core.statGroup(), "memStallCycles",
                     "cycles dispatch was blocked on memory"),
      ipc(&core.statGroup(), "ipc", "committed ops per cycle",
          [this] {
              return cycles.value() > 0
                         ? committedOps.value() / cycles.value()
                         : 0.0;
          })
{
}

CoreClock::CoreClock(EventQueue &eq, std::string name, Tick period)
    : eq_(eq), period_(period),
      tickEvent_([this] { tick(); }, std::move(name) + ".tickEvent",
                 Event::kCpuTickPriority)
{
    if (period_ == 0)
        fatal("core clock '%s': zero period", tickEvent_.name().c_str());
}

CoreClock::~CoreClock()
{
    if (tickEvent_.scheduled())
        eq_.deschedule(tickEvent_);
}

void
CoreClock::add(TimingCore &core)
{
    cores_.push_back(&core);
}

void
CoreClock::scheduleEdge(Tick when)
{
    // Wakes come from memory-side events, which run before the edge
    // of their tick; a core woken by the edge itself would have to
    // tick in index order at an edge that is already under way.
    DC_ASSERT(!inEdge_, "core woken during its clock edge");
    if (!tickEvent_.scheduled())
        eq_.schedule(tickEvent_, when);
    DC_ASSERT(tickEvent_.when() == when,
              "core clock edges out of phase (%llu vs %llu)",
              static_cast<unsigned long long>(tickEvent_.when()),
              static_cast<unsigned long long>(when));
}

void
CoreClock::tick()
{
    inEdge_ = true;
    bool any_awake = false;
    for (TimingCore *core : cores_) {
        if (core->state_ != TimingCore::State::Awake)
            continue;
        core->tick();
        any_awake = any_awake || core->state_ == TimingCore::State::Awake;
    }
    inEdge_ = false;
    if (any_awake)
        eq_.schedule(tickEvent_, eq_.curTick() + period_);
}

TimingCore::TimingCore(Simulator &sim, std::string name,
                       const CoreConfig &cfg,
                       const WorkloadProfile &workload, RequestorId id,
                       CoreClock *clock)
    : SimObject(sim, std::move(name)), cfg_(cfg), workload_(workload),
      id_(id), port_(this->name() + ".dcachePort", *this),
      rng_(cfg.seed), clock_(clock)
{
    if (cfg_.dispatchWidth == 0 || cfg_.commitWidth == 0 ||
        cfg_.robSize == 0)
        fatal("core '%s': zero-width pipeline parameter",
              this->name().c_str());
    if (workload_.footprintBytes < workload_.opSize)
        fatal("core '%s': footprint smaller than one op",
              this->name().c_str());
    if (clock_ == nullptr) {
        ownClock_ = std::make_unique<CoreClock>(eventq(), this->name(),
                                                cfg_.clockPeriod);
        clock_ = ownClock_.get();
    }
    if (clock_->period() != cfg_.clockPeriod)
        fatal("core '%s': clock period differs from its clock domain's",
              this->name().c_str());
    clock_->add(*this);
    stats_ = std::make_unique<CoreStats>(*this);

    // Fold the edges slept through into the statistics before anyone
    // reads them. A reset has already zeroed them when its callback
    // runs, so it only forgets the edges slept through so far.
    statGroup().onDump([this] { creditSleep(curTick()); });
    statGroup().onReset([this] {
        if (state_ == State::Asleep)
            lastEdge_ += (curTick() - lastEdge_) / cfg_.clockPeriod *
                         cfg_.clockPeriod;
    });
}

TimingCore::~TimingCore()
{
    delete blockedPkt_;
}

void
TimingCore::startup()
{
    state_ = State::Awake;
    clock_->scheduleEdge(curTick() + cfg_.clockPeriod);
}

bool
TimingCore::done() const
{
    return cfg_.numOps != 0 && committed_ >= cfg_.numOps;
}

const TimingCore::CoreStats &
TimingCore::coreStats()
{
    creditSleep(curTick());
    return *stats_;
}

double
TimingCore::ipc()
{
    return coreStats().ipc.value();
}

Addr
TimingCore::nextMemAddr()
{
    if (rng_.chance(workload_.seqProb)) {
        cursor_ += workload_.opSize;
    } else {
        std::uint64_t slots =
            workload_.footprintBytes / workload_.opSize;
        cursor_ = rng_.uniform(0, slots - 1) * workload_.opSize;
    }
    if (cursor_ + workload_.opSize > workload_.footprintBytes)
        cursor_ = 0;
    return cfg_.memBase + cursor_;
}

void
TimingCore::tick()
{
    ++stats_->cycles;
    commit();
    dispatch();

    if (done()) {
        state_ = State::Done;
    } else if (stalled()) {
        // Every further edge would only count a cycle (and a memory
        // stall while blocked) until memory responds or retries.
        state_ = State::Asleep;
        lastEdge_ = curTick();
        sleptBlocked_ = blockedPkt_ != nullptr;
    }
}

bool
TimingCore::stalled() const
{
    return (rob_.empty() || !rob_.front().completed) &&
           (blockedPkt_ != nullptr || rob_.size() >= cfg_.robSize);
}

void
TimingCore::creditSleep(Tick upto)
{
    if (state_ != State::Asleep || upto <= lastEdge_)
        return;
    Tick edges = (upto - lastEdge_) / cfg_.clockPeriod;
    stats_->cycles += static_cast<double>(edges);
    if (sleptBlocked_)
        stats_->memStallCycles += static_cast<double>(edges);
    lastEdge_ += edges * cfg_.clockPeriod;
}

void
TimingCore::wake()
{
    if (state_ != State::Asleep)
        return;
    // The first edge at or after now; the edges before it were slept
    // through.
    Tick period = cfg_.clockPeriod;
    Tick resume =
        lastEdge_ +
        std::max<Tick>(1, divCeil<Tick>(curTick() - lastEdge_, period)) *
            period;
    creditSleep(resume - period);
    state_ = State::Awake;
    clock_->scheduleEdge(resume);
}

void
TimingCore::commit()
{
    unsigned retired = 0;
    while (retired < cfg_.commitWidth && !rob_.empty() &&
           rob_.front().completed) {
        rob_.pop_front();
        ++retired;
        ++committed_;
        ++stats_->committedOps;
    }
}

void
TimingCore::dispatch()
{
    if (blockedPkt_ != nullptr) {
        // Still waiting for the cache to accept the previous op.
        ++stats_->memStallCycles;
        return;
    }

    unsigned dispatched = 0;
    while (dispatched < cfg_.dispatchWidth &&
           rob_.size() < cfg_.robSize) {
        bool is_mem = rng_.chance(workload_.memFraction);
        rob_.push_back(Op{is_mem, !is_mem, nextOpId_++});
        ++dispatched;

        if (!is_mem)
            continue;

        auto slot = std::prev(rob_.end());
        bool is_read = rng_.chance(workload_.readFraction);
        auto *pkt = new Packet(is_read ? MemCmd::ReadReq
                                       : MemCmd::WriteReq,
                               nextMemAddr(), workload_.opSize, id_);
        pkt->setInjectedTick(curTick());
        ++stats_->memOps;

        if (!port_.sendTimingReq(pkt)) {
            blockedPkt_ = pkt;
            blockedOp_ = slot;
            ++stats_->memStallCycles;
            return;
        }
        inFlight_.emplace(pkt->id(), slot);
    }
}

void
TimingCore::recvReqRetry()
{
    DC_ASSERT(blockedPkt_ != nullptr, "retry with no blocked packet");
    Packet *pkt = blockedPkt_;
    blockedPkt_ = nullptr;
    if (!port_.sendTimingReq(pkt)) {
        blockedPkt_ = pkt;
        return;
    }
    inFlight_.emplace(pkt->id(), blockedOp_);
    wake();
}

bool
TimingCore::recvTimingResp(Packet *pkt)
{
    auto it = inFlight_.find(pkt->id());
    DC_ASSERT(it != inFlight_.end(), "unexpected response %s",
              pkt->toString().c_str());
    it->second->completed = true;
    inFlight_.erase(it);
    delete pkt;
    // Only a completed ROB head lets a stalled core progress.
    if (rob_.front().completed)
        wake();
    return true;
}

} // namespace dramctrl
