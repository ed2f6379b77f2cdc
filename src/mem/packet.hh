/**
 * @file
 * Memory transaction packets.
 *
 * A Packet is one request or response travelling through the memory
 * system at transaction level. Ownership follows the gem5 convention:
 * the requestor allocates the request packet, the responder turns the
 * same object into a response (makeResponse()), and the requestor
 * deletes it when the response arrives. Writes that receive an early
 * response (Section II-A of the paper) are deleted by the controller
 * after the data has nominally been committed.
 */

#ifndef DRAMCTRL_MEM_PACKET_H
#define DRAMCTRL_MEM_PACKET_H

#include <cstdint>
#include <memory>
#include <string>

#include "sim/pool.hh"
#include "sim/types.hh"
#include "stats/latency_span.hh"

namespace dramctrl {

/** Transaction-level command encoding. */
enum class MemCmd : std::uint8_t {
    ReadReq,
    WriteReq,
    ReadResp,
    WriteResp,
};

/** @return printable name of @p cmd. */
const char *memCmdName(MemCmd cmd);

/**
 * Heap-allocated packets come from a per-thread freelist (see
 * sim/pool.hh): the requestor's `new Packet` and the final `delete`
 * recycle a slot instead of touching malloc, so the steady-state
 * request path is allocation-free (tests/test_alloc_free.cc).
 */
class Packet : public Pooled<Packet>
{
  public:
    /**
     * Opaque per-hop state, pushed by an intermediate component on the
     * request path and popped by the same component on the response
     * path (gem5's SenderState idiom). Used by caches and crossbars to
     * route responses without global tables.
     */
    struct SenderState
    {
        virtual ~SenderState() = default;
        SenderState *predecessor = nullptr;
    };

    Packet(MemCmd cmd, Addr addr, unsigned size, RequestorId requestor);
    ~Packet();

    Packet(const Packet &) = delete;
    Packet &operator=(const Packet &) = delete;

    MemCmd cmd() const { return cmd_; }
    Addr addr() const { return addr_; }
    unsigned size() const { return size_; }
    RequestorId requestorId() const { return requestorId_; }
    std::uint64_t id() const { return id_; }

    bool isRead() const
    {
        return cmd_ == MemCmd::ReadReq || cmd_ == MemCmd::ReadResp;
    }
    bool isWrite() const
    {
        return cmd_ == MemCmd::WriteReq || cmd_ == MemCmd::WriteResp;
    }
    bool isRequest() const
    {
        return cmd_ == MemCmd::ReadReq || cmd_ == MemCmd::WriteReq;
    }
    bool isResponse() const { return !isRequest(); }

    /** Turn this request into the corresponding response in place. */
    void makeResponse();

    /** Tick the requestor injected the packet (set by constructor user). */
    Tick injectedTick() const { return injectedTick_; }
    void setInjectedTick(Tick t) { injectedTick_ = t; }

    /**
     * The latency-attribution span (see stats/latency_span.hh),
     * stamped by the controller that serviced this packet. Invalid
     * until a controller responds; for multi-burst packets it
     * describes the burst that completed the response.
     */
    const stats::LatencySpan &span() const { return span_; }
    void setSpan(const stats::LatencySpan &s) { span_ = s; }

    /** Push per-hop state (request path). */
    void pushSenderState(SenderState *state);

    /** Pop per-hop state (response path). Panics when empty. */
    SenderState *popSenderState();

    SenderState *senderState() const { return senderState_; }

    /** One past the highest byte this packet touches. */
    Addr endAddr() const { return addr_ + size_; }

    /** True if this packet's byte span lies inside [addr, addr+size). */
    bool isContainedIn(Addr addr, unsigned size) const
    {
        return addr_ >= addr && endAddr() <= addr + size;
    }

    /** True if the byte spans intersect at all. */
    bool overlaps(Addr addr, unsigned size) const
    {
        return addr_ < addr + size && addr < endAddr();
    }

    std::string toString() const;

    /** Live packets created by the calling thread, for leak checks. */
    static std::uint64_t liveCount();

    /**
     * The calling thread's next packet id. Checkpoints save and
     * restore the id stream so packet identity (visible in traces)
     * survives a save/load cycle.
     */
    static std::uint64_t nextId();
    static void setNextId(std::uint64_t id);

  private:
    MemCmd cmd_;
    Addr addr_;
    unsigned size_;
    RequestorId requestorId_;
    std::uint64_t id_;
    Tick injectedTick_ = 0;
    stats::LatencySpan span_;
    SenderState *senderState_ = nullptr;
};

} // namespace dramctrl

#endif // DRAMCTRL_MEM_PACKET_H
