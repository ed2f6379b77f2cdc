/**
 * @file
 * A time-ordered packet queue: "this packet appears at this port at
 * tick T".
 *
 * Components that know *when* a packet should appear push it with its
 * due tick: the controllers' early write responses and read
 * completions and the cache's hit responses (a response queue on the
 * owner's ResponsePort, as gem5's queued port), and every request and
 * response crossing the crossbar (an inbox that the sending side
 * delivers into, directly or through ShardedEngine::post()). The queue
 * keeps one event at the head's due tick and hands each entry to its
 * handler then; a handler that refuses the entry stalls the queue until
 * the owner calls resume() on the peer's retry.
 */

#ifndef DRAMCTRL_MEM_PACKET_QUEUE_H
#define DRAMCTRL_MEM_PACKET_QUEUE_H

#include <cstdint>
#include <functional>
#include <string>

#include "sim/event.hh"
#include "sim/ring_buffer.hh"
#include "sim/shard.hh"
#include "sim/types.hh"

namespace dramctrl {

class Packet;
class ResponsePort;
class SimObject;

namespace ckpt {
class Io;
} // namespace ckpt

/**
 * Entries are sorted by due tick, then by their delivery argument (the
 * crossbar passes the sender's index, a response queue 0), then by push
 * order. The event runs on the owner's queue at @p priority; with
 * Event::kArrivalPriority it takes its fixed place among the queue's
 * arrival events (EventQueue::fixArrivalOrder()).
 *
 * A message from another shard is delivered after each barrier, on
 * the executor that runs the owner's shard, while other executors fill
 * their own shards' queues or run their next window; deliver() then
 * touches only the owner's event queue and this queue. A message from
 * the owner's own shard (every message, when the simulator is
 * unsharded) is delivered when it is sent. Neither the barrier a
 * message meets nor the order of deliveries decides when an entry is
 * handled: only its due tick, its argument, and the order the sender
 * sent in. The ring grows to its high-water mark (or the size given to
 * reserve()) and never shrinks, so a steady state delivers without
 * allocating.
 */
class PacketQueue : public ShardMailbox
{
  public:
    /** Invoked on the owner's shard; false = stall until resume(). */
    using Handler = std::function<bool(Tick, Packet *, std::uint64_t)>;

    /** The event is named "<owner>.<name>". */
    PacketQueue(SimObject &owner, const std::string &name,
                Event::Priority priority, Handler handler);

    /**
     * A response queue: the handler sends each entry, which must be a
     * response, out through @p port, and closes its Chrome span.
     */
    PacketQueue(SimObject &owner, const std::string &name,
                Event::Priority priority, ResponsePort &port);

    /** Deschedules the event and frees still-queued packets. */
    ~PacketQueue() override;

    /**
     * Queue @p pkt for its handler at tick @p when, which must not be
     * in the past. Entries may be pushed out of time order.
     */
    void deliver(Tick when, Packet *pkt, std::uint64_t arg) override;

    /** Clear a stall (the peer's retry) and re-pump pending entries. */
    void resume();

    /** Size the ring for @p n queued entries up front. */
    void reserve(std::size_t n) { entries_.reserve(n); }

    bool empty() const { return entries_.empty(); }
    std::size_t size() const { return entries_.size(); }
    std::size_t capacity() const { return entries_.capacity(); }

    /** Checkpoint walk over the queued entries, keys under @p prefix. */
    void checkpoint(ckpt::Io &io, const std::string &prefix);

  private:
    struct Entry
    {
        Tick when;
        Packet *pkt;
        std::uint64_t arg;
    };

    bool sendResp(ResponsePort &port, Packet *pkt);
    void pump();
    void scheduleWake();

    SimObject &owner_;
    Handler handler_;
    RingBuffer<Entry> entries_;
    bool stalled_ = false;
    EventFunctionWrapper event_;
};

} // namespace dramctrl

#endif // DRAMCTRL_MEM_PACKET_QUEUE_H
