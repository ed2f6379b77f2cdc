#include "layers.hh"

#include <string>
#include <string_view>

namespace hostbench {

namespace {

struct PartInfo
{
    const char *name;
    const char *layer;
};

// Indexed by Part.
constexpr PartInfo kParts[kNumParts] = {
    {"injectEvent", "trafficgen"},
    {"recvTimingResp+retry", "trafficgen"},
    {"respQueue.sendEvent", "mem"},
    {"nextReqEvent", "dram"},
    {"recvTimingReq", "dram"},
    {"refresh+other", "dram"},
    {"tickEvent", "cyclesim"},
    {"recvTimingReq", "cyclesim"},
    {"layer sendEvent", "xbar"},
    {"inbox wake", "xbar"},
    {"core tickEvent", "cpu"},
    {"cache respQueue", "cpu"},
    {"unclassified", "other"},
};

bool
endsWith(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() &&
           s.substr(s.size() - suffix.size()) == suffix;
}

/**
 * Map an event name onto its part. Names are "<object>.<event>", and
 * the harness names controllers "mem_ctrl<N>", crossbars "*xbar" and
 * generators "gen<N>".
 */
Part
classify(const std::string &name)
{
    const bool ctrl = name.rfind("mem_ctrl", 0) == 0;
    if (endsWith(name, ".wake"))
        return Part::XbarWake;
    if (endsWith(name, ".injectEvent"))
        return Part::GenInject;
    if (endsWith(name, ".nextReqEvent"))
        return Part::NextReq;
    if (endsWith(name, ".tickEvent"))
        return ctrl ? Part::CycleTick : Part::CoreTick;
    if (endsWith(name, ".respQueue.sendEvent"))
        return ctrl ? Part::RespQueue : Part::CacheSend;
    if (endsWith(name, ".sendEvent") &&
        name.find("xbar") != std::string::npos)
        return Part::XbarSend;
    return ctrl ? Part::DramOther : Part::Other;
}

} // namespace

const char *
partName(Part p)
{
    return kParts[static_cast<unsigned>(p)].name;
}

const char *
partLayer(Part p)
{
    return kParts[static_cast<unsigned>(p)].layer;
}

double
HostSplit::partsSeconds() const
{
    double total = 0;
    for (double s : seconds)
        total += s;
    return total;
}

void
HostSplit::merge(const HostSplit &o)
{
    for (unsigned i = 0; i < kNumParts; ++i) {
        seconds[i] += o.seconds[i];
        calls[i] += o.calls[i];
    }
    bookkeeping += o.bookkeeping;
    events += o.events;
    eventSeconds += o.eventSeconds;
    tapAttempts += o.tapAttempts;
    tapRefused += o.tapRefused;
}

HostSplit
LayerProfiler::split() const
{
    HostSplit s = split_;
    s.events = totalEvents();
    s.eventSeconds = totalHostSeconds();
    return s;
}

void
LayerProfiler::record(const dramctrl::Event &ev, double host_seconds)
{
    auto t0 = now();
    EventProfiler::record(ev, host_seconds);
    auto it = partOf_.find(&ev);
    if (it == partOf_.end())
        it = partOf_.emplace(&ev, classify(ev.name())).first;
    split_.sec(it->second) += host_seconds - eventChildren_;
    ++split_.n(it->second);
    eventChildren_ = 0;
    split_.bookkeeping += since(t0);
}

bool
PortTap::CpuSide::recvTimingReq(dramctrl::Packet *pkt)
{
    PortTap &tap = tap_;
    if (tap.prof_ == nullptr)
        return tap.memSide_.sendTimingReq(pkt);
    bool accepted = tap.prof_->span(
        tap.enqueuePart_, [&] { return tap.memSide_.sendTimingReq(pkt); });
    tap.prof_->countTapRequest(accepted);
    return accepted;
}

void
PortTap::CpuSide::recvRespRetry()
{
    tap_.memSide_.sendRespRetry();
}

bool
PortTap::MemSide::recvTimingResp(dramctrl::Packet *pkt)
{
    PortTap &tap = tap_;
    if (tap.prof_ == nullptr)
        return tap.cpuSide_.sendTimingResp(pkt);
    return tap.prof_->span(Part::GenRecv, [&] {
        return tap.cpuSide_.sendTimingResp(pkt);
    });
}

void
PortTap::MemSide::recvReqRetry()
{
    PortTap &tap = tap_;
    if (tap.prof_ == nullptr) {
        tap.cpuSide_.sendReqRetry();
        return;
    }
    tap.prof_->span(Part::GenRecv, [&] {
        tap.cpuSide_.sendReqRetry();
        return true;
    });
}

} // namespace hostbench
