#include "xbar/xbar.hh"

#include <algorithm>

#include "obs/chrome_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace dramctrl {

std::vector<AddrRange>
interleavedRanges(Addr base, std::uint64_t total_size,
                  std::uint64_t granularity, unsigned channels)
{
    std::vector<AddrRange> ranges;
    ranges.reserve(channels);
    if (channels == 1) {
        ranges.emplace_back(base, total_size);
        return ranges;
    }
    for (unsigned ch = 0; ch < channels; ++ch)
        ranges.emplace_back(base, total_size, granularity, channels, ch);
    return ranges;
}

Crossbar::XBarStats::XBarStats(Crossbar &xbar)
    : reqPackets(&xbar.statGroup(), "reqPackets",
                 "requests forwarded"),
      respPackets(&xbar.statGroup(), "respPackets",
                  "responses forwarded"),
      reqRetries(&xbar.statGroup(), "reqRetries",
                 "requests refused on a busy layer"),
      bytesForwarded(&xbar.statGroup(), "bytesForwarded",
                     "payload bytes forwarded (both directions)")
{
}

Crossbar::Layer::Layer(EventQueue &eq, std::string name,
                       unsigned queue_limit)
    : eq_(eq), name_(name),
      sendEvent_([this] { trySend(); }, name + ".sendEvent")
{
    queue_.init(queue_limit);
}

Crossbar::Layer::~Layer()
{
    if (sendEvent_.scheduled())
        eq_.deschedule(sendEvent_);
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        Entry &e = queue_[i];
        while (e.pkt->senderState() != nullptr)
            delete e.pkt->popSenderState();
        delete e.pkt;
    }
}

void
Crossbar::Layer::admit(Packet *pkt, Tick occupancy, Tick latency)
{
    DC_ASSERT(!full(), "admit to a full layer");
    Tick now = eq_.curTick();
    busyUntil_ = std::max(busyUntil_, now) + occupancy;
    Tick deliver_at = busyUntil_ + latency;
    queue_.push_back(Entry{deliver_at, pkt});
    if (auto *ct = obs::chromeTracer())
        ct->counter(name_, "depth", now,
                    static_cast<double>(queue_.size()));
    if (!waitingForRetry_ && !sendEvent_.scheduled())
        eq_.schedule(sendEvent_,
                               std::max(now, queue_.front().deliverAt));
}

void
Crossbar::Layer::retry()
{
    DC_ASSERT(waitingForRetry_, "unexpected layer retry");
    waitingForRetry_ = false;
    trySend();
}

void
Crossbar::Layer::trySend()
{
    bool sent = false;
    while (!queue_.empty() &&
           queue_.front().deliverAt <= eq_.curTick()) {
        if (!sendFn(queue_.front().pkt)) {
            waitingForRetry_ = true;
            break;
        }
        queue_.pop_front();
        sent = true;
        if (onSlotFreed)
            onSlotFreed();
    }
    if (sent) {
        if (auto *ct = obs::chromeTracer())
            ct->counter(name_, "depth", eq_.curTick(),
                        static_cast<double>(queue_.size()));
    }
    if (waitingForRetry_)
        return;
    if (!queue_.empty() && !sendEvent_.scheduled())
        eq_.schedule(
            sendEvent_,
            std::max(eq_.curTick(), queue_.front().deliverAt));
}

Crossbar::Crossbar(Simulator &sim, std::string name, XBarConfig cfg)
    : SimObject(sim, std::move(name)), cfg_(cfg)
{
    if (cfg_.width == 0 || cfg_.clockPeriod == 0)
        fatal("crossbar '%s': zero width or clock period",
              this->name().c_str());
    if (cfg_.layerQueueLimit == 0)
        fatal("crossbar '%s': layer queue limit must be non-zero",
              this->name().c_str());
    stats_ = std::make_unique<XBarStats>(*this);
}

Crossbar::~Crossbar() = default;

unsigned
Crossbar::addCpuSidePort()
{
    unsigned idx = static_cast<unsigned>(cpuPorts_.size());
    cpuPorts_.push_back(std::make_unique<CpuSidePort>(
        name() + ".cpuSide" + std::to_string(idx), *this, idx));

    auto layer = std::make_unique<Layer>(
        eventq(), name() + ".respLayer" + std::to_string(idx),
        cfg_.layerQueueLimit);
    layer->sendFn = [this, idx](Packet *pkt) {
        return cpuPorts_[idx]->sendTimingResp(pkt);
    };
    layer->onSlotFreed = [this, idx] {
        retryWaiters(respWaiters_[idx], false);
    };
    respLayers_.push_back(std::move(layer));
    respWaiters_.emplace_back().reserve(memPorts_.size());
    for (auto &waiters : reqWaiters_)
        waiters.reserve(cpuPorts_.size());
    return idx;
}

ResponsePort &
Crossbar::cpuSidePort(unsigned idx)
{
    return *cpuPorts_.at(idx);
}

unsigned
Crossbar::addMemSidePort(const AddrRange &range)
{
    for (const AddrRange &r : ranges_) {
        if (!r.disjoint(range))
            fatal("crossbar '%s': range %s overlaps existing range %s",
                  name().c_str(), range.toString().c_str(),
                  r.toString().c_str());
    }

    unsigned idx = static_cast<unsigned>(memPorts_.size());
    memPorts_.push_back(std::make_unique<MemSidePort>(
        name() + ".memSide" + std::to_string(idx), *this, idx));
    ranges_.push_back(range);

    auto layer = std::make_unique<Layer>(
        eventq(), name() + ".reqLayer" + std::to_string(idx),
        cfg_.layerQueueLimit);
    layer->sendFn = [this, idx](Packet *pkt) {
        return memPorts_[idx]->sendTimingReq(pkt);
    };
    layer->onSlotFreed = [this, idx] {
        retryWaiters(reqWaiters_[idx], true);
    };
    reqLayers_.push_back(std::move(layer));
    reqWaiters_.emplace_back().reserve(cpuPorts_.size());
    for (auto &waiters : respWaiters_)
        waiters.reserve(memPorts_.size());
    return idx;
}

RequestPort &
Crossbar::memSidePort(unsigned idx)
{
    return *memPorts_.at(idx);
}

unsigned
Crossbar::route(Addr addr) const
{
    for (std::size_t i = 0; i < ranges_.size(); ++i) {
        if (ranges_[i].contains(addr))
            return static_cast<unsigned>(i);
    }
    fatal("crossbar '%s': no range covers address %#llx",
          name().c_str(), static_cast<unsigned long long>(addr));
}

std::size_t
Crossbar::queuedPackets() const
{
    std::size_t n = 0;
    for (const auto &layer : reqLayers_)
        n += layer->size();
    for (const auto &layer : respLayers_)
        n += layer->size();
    return n;
}

bool
Crossbar::idle() const
{
    for (const auto &layer : reqLayers_) {
        if (!layer->empty())
            return false;
    }
    for (const auto &layer : respLayers_) {
        if (!layer->empty())
            return false;
    }
    return true;
}

Tick
Crossbar::occupancyFor(const Packet *pkt) const
{
    return cfg_.clockPeriod *
           divCeil<std::uint64_t>(pkt->size(), cfg_.width);
}

bool
Crossbar::handleReq(Packet *pkt, unsigned src)
{
    unsigned dst = route(pkt->addr());
    Layer &layer = *reqLayers_[dst];
    if (layer.full()) {
        TRACE(XBar, "%s: block %s from port %u, req layer %u busy",
              name().c_str(), pkt->toString().c_str(), src, dst);
        ++stats_->reqRetries;
        auto &waiters = reqWaiters_[dst];
        if (std::find(waiters.begin(), waiters.end(), src) ==
            waiters.end())
            waiters.push_back(src);
        return false;
    }

    TRACE(XBar, "%s: forward %s from port %u to layer %u",
          name().c_str(), pkt->toString().c_str(), src, dst);
    if (auto *ct = obs::chromeTracer())
        ct->instant(name(), "req port " + std::to_string(src) +
                                " -> mem " + std::to_string(dst),
                    curTick());

    auto *rs = new RouteState;
    rs->srcPort = src;
    pkt->pushSenderState(rs);

    ++stats_->reqPackets;
    stats_->bytesForwarded += pkt->size();
    layer.admit(pkt, occupancyFor(pkt), cfg_.frontendLatency);
    return true;
}

bool
Crossbar::handleResp(Packet *pkt, unsigned mem_idx)
{
    auto *rs = static_cast<RouteState *>(pkt->senderState());
    DC_ASSERT(rs != nullptr, "response without route state");
    unsigned src = rs->srcPort;

    Layer &layer = *respLayers_[src];
    if (layer.full()) {
        TRACE(XBar, "%s: block %s from mem %u, resp layer %u busy",
              name().c_str(), pkt->toString().c_str(), mem_idx, src);
        auto &waiters = respWaiters_[src];
        if (std::find(waiters.begin(), waiters.end(), mem_idx) ==
            waiters.end())
            waiters.push_back(mem_idx);
        return false;
    }

    TRACE(XBar, "%s: forward %s from mem %u back to port %u",
          name().c_str(), pkt->toString().c_str(), mem_idx, src);

    pkt->popSenderState();
    delete rs;

    ++stats_->respPackets;
    stats_->bytesForwarded += pkt->size();
    layer.admit(pkt, occupancyFor(pkt), cfg_.responseLatency);
    return true;
}

void
Crossbar::retryWaiters(std::vector<unsigned> &waiters, bool cpu_side)
{
    if (waiters.empty())
        return;
    unsigned idx = waiters.front();
    waiters.erase(waiters.begin());
    if (cpu_side)
        cpuPorts_[idx]->sendReqRetry();
    else
        memPorts_[idx]->sendRespRetry();
}

} // namespace dramctrl
