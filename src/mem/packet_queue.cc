#include "mem/packet_queue.hh"

#include <vector>

#include "ckpt/ckpt.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"

namespace dramctrl {

PacketQueue::PacketQueue(SimObject &owner, const std::string &name,
                         Event::Priority priority, Handler handler)
    : owner_(owner), handler_(std::move(handler)),
      event_([this] { pump(); }, owner.name() + "." + name, priority)
{
    if (priority == Event::kArrivalPriority)
        owner.eventq().fixArrivalOrder(event_);
}

PacketQueue::PacketQueue(SimObject &owner, const std::string &name,
                         Event::Priority priority, ResponsePort &port)
    : PacketQueue(owner, name, priority,
                  [this, &port](Tick, Packet *pkt, std::uint64_t) {
                      return sendResp(port, pkt);
                  })
{
}

PacketQueue::~PacketQueue()
{
    if (event_.scheduled())
        owner_.deschedule(event_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Packet *pkt = entries_[i].pkt;
        if (pkt == nullptr)
            continue;
        // An undelivered packet may still carry per-hop sender state
        // from the request path; release it before the packet.
        while (pkt->senderState() != nullptr)
            delete pkt->popSenderState();
        delete pkt;
    }
}

void
PacketQueue::deliver(Tick when, Packet *pkt, std::uint64_t arg)
{
    DC_ASSERT(when >= owner_.curTick(), "%s: packet due in the past",
              event_.name().c_str());
    // Keep entries sorted by (due tick, arg), then by delivery order.
    // Which barrier delivers a crossbar message depends on the run()
    // horizon, so delivery order only breaks ties within one sender,
    // whose messages always arrive in send order. Packets mostly
    // arrive in due order, so the scan from the back usually stops at
    // once.
    std::size_t pos = entries_.size();
    while (pos > 0 && (entries_[pos - 1].when > when ||
                       (entries_[pos - 1].when == when &&
                        entries_[pos - 1].arg > arg)))
        --pos;
    entries_.insert(pos, Entry{when, pkt, arg});
    if (!stalled_)
        scheduleWake();
}

void
PacketQueue::resume()
{
    DC_ASSERT(stalled_, "%s: unexpected retry", event_.name().c_str());
    stalled_ = false;
    pump();
}

bool
PacketQueue::sendResp(ResponsePort &port, Packet *pkt)
{
    DC_ASSERT(pkt->isResponse(), "queueing non-response %s",
              pkt->toString().c_str());
    // The receiver may delete the packet as soon as it accepts it;
    // take what the span needs up front.
    std::uint64_t pkt_id = pkt->id();
    if (!port.sendTimingResp(pkt)) {
        TRACE(PacketQueue, "%s: response held, peer busy",
              event_.name().c_str());
        return false;
    }
    TRACE(PacketQueue, "%s: response delivered", event_.name().c_str());
    if (auto *ct = obs::chromeTracer())
        ct->endSpan(pkt_id, owner_.curTick());
    return true;
}

void
PacketQueue::pump()
{
    while (!entries_.empty() &&
           entries_.front().when <= owner_.curTick()) {
        // A copy: the handler may deliver into this queue, which can
        // grow (and so move) the ring.
        Entry head = entries_.front();
        if (!handler_(head.when, head.pkt, head.arg)) {
            stalled_ = true;
            return;
        }
        entries_.pop_front();
    }
    if (!entries_.empty())
        scheduleWake();
}

void
PacketQueue::scheduleWake()
{
    Tick head = entries_.front().when;
    if (!event_.scheduled())
        owner_.schedule(event_, head);
    else if (event_.when() != head)
        owner_.reschedule(event_, head);
}

void
PacketQueue::checkpoint(ckpt::Io &io, const std::string &prefix)
{
    io.flag(prefix + ".stalled", stalled_);
    std::vector<std::uint64_t> whens;
    for (std::size_t i = 0; i < entries_.size(); ++i)
        whens.push_back(entries_[i].when);
    io.list(prefix + ".when", whens);
    // A restore refills the fresh queue, one entry per saved due tick.
    for (std::size_t i = entries_.size(); i < whens.size(); ++i)
        entries_.insert(i, Entry{whens[i], nullptr, 0});
    io.table(prefix + ".arg", entries_.size(), [this](std::size_t i) {
        return std::tie(entries_[i].arg);
    });
    for (std::size_t i = 0; i < entries_.size(); ++i)
        io.packet(prefix + ".pkt" + std::to_string(i), entries_[i].pkt);
    io.event(prefix + ".wake", owner_.eventq(), event_);
}

} // namespace dramctrl
