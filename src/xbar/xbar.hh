/**
 * @file
 * Transaction-level crossbar with address interleaving.
 *
 * The paper's multi-channel systems (Section II-F, Figure 1) put the
 * channel interleaving outside the controllers, in a crossbar: each
 * mem-side port owns a (typically interleaved) AddrRange, and requests
 * route by address. Each destination has a request layer and each
 * source a response layer; a layer serialises packets at the crossbar's
 * width and clock, models the forwarding latency, bounds its queue, and
 * propagates back pressure both ways — so a slow channel stalls exactly
 * the requestors that target it.
 */

#ifndef DRAMCTRL_XBAR_XBAR_H
#define DRAMCTRL_XBAR_XBAR_H

#include <memory>
#include <string>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/pool.hh"
#include "sim/ring_buffer.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"

namespace dramctrl {

struct XBarConfig
{
    /** Crossbar clock period. */
    Tick clockPeriod = fromNs(1.0);
    /** Bytes moved per clock on a layer. */
    unsigned width = 16;
    /** Pipeline latency added to every forwarded request. */
    Tick frontendLatency = fromNs(3.0);
    /** Pipeline latency added to every forwarded response. */
    Tick responseLatency = fromNs(3.0);
    /** Packets a layer may hold before pushing back. */
    unsigned layerQueueLimit = 2;
};

/**
 * Build the per-channel interleaved ranges for a memory of
 * @p total_size bytes starting at @p base, split over @p channels
 * channels at @p granularity bytes.
 */
std::vector<AddrRange> interleavedRanges(Addr base,
                                         std::uint64_t total_size,
                                         std::uint64_t granularity,
                                         unsigned channels);

class Crossbar : public SimObject
{
  public:
    Crossbar(Simulator &sim, std::string name, XBarConfig cfg);
    ~Crossbar() override;

    /**
     * Create a new cpu-side (requestor-facing) port.
     * @return its index, used to retrieve the port for binding.
     */
    unsigned addCpuSidePort();
    ResponsePort &cpuSidePort(unsigned idx);

    /**
     * Create a new mem-side port responsible for @p range.
     * @return its index.
     */
    unsigned addMemSidePort(const AddrRange &range);
    RequestPort &memSidePort(unsigned idx);

    const XBarConfig &config() const { return cfg_; }

    /** Index of the mem-side port covering @p addr; fatal if none. */
    unsigned route(Addr addr) const;

    /** True when no packet is held in any layer. */
    bool idle() const;

    /**
     * Packets currently buffered across every layer — the in-flight
     * crossbar occupancy the introspection endpoint reports.
     */
    std::size_t queuedPackets() const;

    struct XBarStats
    {
        explicit XBarStats(Crossbar &xbar);

        stats::Scalar reqPackets;
        stats::Scalar respPackets;
        stats::Scalar reqRetries;
        stats::Scalar bytesForwarded;
    };

    const XBarStats &xbarStats() const { return *stats_; }

  private:
    /**
     * One serialising pipeline stage. Packets are admitted with a
     * computed delivery tick and sent in order; a refused send stalls
     * the layer until the peer's retry.
     */
    class Layer
    {
      public:
        Layer(EventQueue &eq, std::string name, unsigned queue_limit);
        ~Layer();

        bool full() const { return queue_.full(); }
        bool empty() const { return queue_.empty(); }
        std::size_t size() const { return queue_.size(); }

        /** Admit a packet; the caller must have checked full(). */
        void admit(Packet *pkt, Tick occupancy, Tick latency);

        /** Forwarding hook: sendTimingReq or sendTimingResp. */
        std::function<bool(Packet *)> sendFn;
        /** Invoked whenever the layer frees a slot. */
        std::function<void()> onSlotFreed;

        /** Peer retry received. */
        void retry();

      private:
        void trySend();

        struct Entry
        {
            Tick deliverAt = 0;
            Packet *pkt = nullptr;
        };

        EventQueue &eq_;
        std::string name_;
        /** Sized to the queue limit once, at construction. */
        RingBuffer<Entry> queue_;
        /** Serialisation horizon of admitted packets. */
        Tick busyUntil_ = 0;
        bool waitingForRetry_ = false;
        EventFunctionWrapper sendEvent_;
    };

    /** Route-back breadcrumb pushed on the request path. */
    struct RouteState : Packet::SenderState, Pooled<RouteState>
    {
        unsigned srcPort;
    };

    class CpuSidePort : public ResponsePort
    {
      public:
        CpuSidePort(std::string name, Crossbar &xbar, unsigned idx)
            : ResponsePort(std::move(name)), xbar_(xbar), idx_(idx)
        {}

        bool recvTimingReq(Packet *pkt) override
        {
            return xbar_.handleReq(pkt, idx_);
        }

        void recvRespRetry() override
        {
            xbar_.respLayers_[idx_]->retry();
        }

      private:
        Crossbar &xbar_;
        unsigned idx_;
    };

    class MemSidePort : public RequestPort
    {
      public:
        MemSidePort(std::string name, Crossbar &xbar, unsigned idx)
            : RequestPort(std::move(name)), xbar_(xbar), idx_(idx)
        {}

        bool recvTimingResp(Packet *pkt) override
        {
            return xbar_.handleResp(pkt, idx_);
        }

        void recvReqRetry() override
        {
            xbar_.reqLayers_[idx_]->retry();
        }

      private:
        Crossbar &xbar_;
        unsigned idx_;
    };

    bool handleReq(Packet *pkt, unsigned src);
    bool handleResp(Packet *pkt, unsigned mem_idx);

    /** Serialisation time of @p pkt on a layer. */
    Tick occupancyFor(const Packet *pkt) const;

    void retryWaiters(std::vector<unsigned> &waiters, bool cpu_side);

    XBarConfig cfg_;

    std::vector<std::unique_ptr<CpuSidePort>> cpuPorts_;
    std::vector<std::unique_ptr<MemSidePort>> memPorts_;
    std::vector<AddrRange> ranges_;

    std::vector<std::unique_ptr<Layer>> reqLayers_;  // per mem port
    std::vector<std::unique_ptr<Layer>> respLayers_; // per cpu port

    /**
     * Sources waiting on a full request layer, per mem port, oldest
     * first. A port waits at most once per list, so each list is
     * reserved to the port count as ports are added and never grows
     * while simulating.
     */
    std::vector<std::vector<unsigned>> reqWaiters_;
    /** Mem ports waiting on a full response layer, per cpu port. */
    std::vector<std::vector<unsigned>> respWaiters_;

    std::unique_ptr<XBarStats> stats_;
};

} // namespace dramctrl

#endif // DRAMCTRL_XBAR_XBAR_H
