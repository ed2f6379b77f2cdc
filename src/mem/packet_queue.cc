#include "mem/packet_queue.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"

namespace dramctrl {

RespPacketQueue::RespPacketQueue(EventQueue &eventq, ResponsePort &port,
                                 std::string name)
    : eventq_(eventq), port_(port),
      sendEvent_([this] { trySend(); }, std::move(name) + ".sendEvent",
                 Event::kResponsePriority)
{
}

RespPacketQueue::~RespPacketQueue()
{
    if (sendEvent_.scheduled())
        eventq_.deschedule(sendEvent_);
    for (std::size_t i = head_; i < queue_.size(); ++i) {
        Entry &e = queue_[i];
        // Undelivered responses may still carry per-hop sender state
        // from the request path; release it before the packet.
        while (e.pkt->senderState() != nullptr)
            delete e.pkt->popSenderState();
        delete e.pkt;
    }
}

void
RespPacketQueue::schedSendResp(Packet *pkt, Tick when)
{
    DC_ASSERT(pkt->isResponse(), "queueing non-response %s",
              pkt->toString().c_str());
    DC_ASSERT(when >= eventq_.curTick(), "response in the past");

    // Insert keeping time order; equal ticks keep push order.
    auto it = std::find_if(queue_.begin() + head_, queue_.end(),
                           [when](const Entry &e) { return e.when > when; });
    queue_.insert(it, Entry{when, pkt});

    if (!waitingForRetry_) {
        Tick front_when = front().when;
        if (!sendEvent_.scheduled())
            eventq_.schedule(sendEvent_, front_when);
        else if (sendEvent_.when() > front_when)
            eventq_.reschedule(sendEvent_, front_when);
    }
}

void
RespPacketQueue::retry()
{
    DC_ASSERT(waitingForRetry_, "unexpected response retry");
    waitingForRetry_ = false;
    trySend();
}

void
RespPacketQueue::trySend()
{
    while (!empty() && front().when <= eventq_.curTick()) {
        Packet *pkt = front().pkt;
        // The receiver may delete the packet as soon as it accepts it;
        // take what the span needs up front.
        std::uint64_t pkt_id = pkt->id();
        if (!port_.sendTimingResp(pkt)) {
            TRACE(PacketQueue, "%s: response held, peer busy",
                  sendEvent_.name().c_str());
            waitingForRetry_ = true;
            return;
        }
        TRACE(PacketQueue, "%s: response delivered",
              sendEvent_.name().c_str());
        if (auto *ct = obs::chromeTracer())
            ct->endSpan(pkt_id, eventq_.curTick());
        popFront();
    }
    if (!empty() && !sendEvent_.scheduled())
        eventq_.schedule(sendEvent_, front().when);
}

void
RespPacketQueue::checkpoint(ckpt::Io &io)
{
    std::uint64_t count = size();
    io.u64("respq.count", count);
    // A restore fills a fresh queue (head_ 0) with the saved entries;
    // a save walks the live ones in place.
    queue_.resize(head_ + count);
    io.table("respq.whens", count, [this](std::size_t i) {
        return std::tie(queue_[head_ + i].when);
    });
    for (std::size_t i = 0; i < count; ++i)
        io.packet("respq.pkt" + std::to_string(i), queue_[head_ + i].pkt);
    io.flag("respq.waitingForRetry", waitingForRetry_);
    io.event("respq.sendEvent", eventq_, sendEvent_);
}

void
RespPacketQueue::popFront()
{
    ++head_;
    if (head_ == queue_.size()) {
        // Drained: rewind into the retained storage.
        queue_.clear();
        head_ = 0;
    }
}

} // namespace dramctrl
