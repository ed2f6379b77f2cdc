/**
 * @file
 * A time-ordered outbound response queue attached to a ResponsePort.
 *
 * Components that know *when* a response should appear at their port
 * (the DRAM controller's early write responses and read completions,
 * cache hit responses, ...) push packets with a delivery tick. The queue
 * sends them in time order and absorbs peer back pressure: if the peer
 * refuses a response the queue simply waits for recvRespRetry() and
 * resumes. This mirrors gem5's queued-port idiom.
 */

#ifndef DRAMCTRL_MEM_PACKET_QUEUE_H
#define DRAMCTRL_MEM_PACKET_QUEUE_H

#include <string>
#include <vector>

#include "ckpt/serializable.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/event.hh"
#include "sim/eventq.hh"

namespace dramctrl {

class RespPacketQueue
{
  public:
    RespPacketQueue(EventQueue &eventq, ResponsePort &port,
                    std::string name);
    ~RespPacketQueue();

    /**
     * Queue @p pkt (which must already be a response) for delivery at
     * tick @p when. Packets may be pushed out of time order; delivery is
     * always in tick order, ties in push order.
     */
    void schedSendResp(Packet *pkt, Tick when);

    /** Hook this up to the owning port's recvRespRetry(). */
    void retry();

    /** Size the storage for @p n queued responses up front. */
    void reserve(std::size_t n) { queue_.reserve(n); }

    bool empty() const { return head_ == queue_.size(); }
    std::size_t size() const { return queue_.size() - head_; }

    /**
     * Checkpoint walk, called from the owning controller's section
     * with all keys prefixed "respq." (the queue is a sub-object, not
     * a SimObject with a section of its own).
     */
    void checkpoint(ckpt::Io &io);

  private:
    void trySend();
    void popFront();

    struct Entry
    {
        Tick when;
        Packet *pkt;
    };

    const Entry &front() const { return queue_[head_]; }

    EventQueue &eventq_;
    ResponsePort &port_;
    // Time-ordered pending responses. A flat vector plus a head index
    // (consumed entries are dropped lazily, the storage is reused once
    // the queue drains) keeps the steady state allocation-free, unlike
    // the deque this replaced.
    std::vector<Entry> queue_;
    std::size_t head_ = 0;
    bool waitingForRetry_ = false;
    EventFunctionWrapper sendEvent_;
};

} // namespace dramctrl

#endif // DRAMCTRL_MEM_PACKET_QUEUE_H
