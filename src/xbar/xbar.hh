/**
 * @file
 * Credit-based memory crossbar with address interleaving.
 *
 * The paper's multi-channel systems (Section II-F, Figure 1) put the
 * channel interleaving outside the controllers, in a crossbar: each
 * channel owns a (typically interleaved) AddrRange, and requests
 * route by address. This is the one crossbar model: it serves the
 * sharded multi-channel presets, the closed-loop cache hierarchy and
 * the examples alike.
 *
 * The crossbar is split at the point where a shard boundary may cut
 * it:
 *
 *  - A FrontPort lives on the requestor's shard. It models the front
 *    layer's serialisation (one request lane per front port) and pays
 *    the frontend latency on the way to a channel.
 *  - A ChannelPort lives on its controller's shard. It models the
 *    response lane of that channel and pays the response latency on
 *    the way back.
 *  - All traffic between the two sides — requests, responses and the
 *    flow-control credits that replace synchronous retries — travels
 *    as messages: through ShardedEngine::post() when the simulator is
 *    sharded (delivered after the barrier that ends the window, in
 *    the engine's deterministic merge order), straight into the
 *    receiver when it is not.
 *
 * Back pressure is credit based. Each front port holds kCredits
 * tokens per channel; a request consumes one and the channel returns
 * it (with response latency) once the controller accepted the packet.
 * Each channel holds kCredits tokens per front port; a response
 * consumes one and the front returns it (with frontend latency) once
 * the requestor accepted the packet. A side with no credit refuses its
 * local peer exactly like a plain port would, so generators, caches
 * and controllers see the ordinary timing-port protocol, unchanged.
 *
 * The credit rule: a returned credit is home from its due tick on,
 * and costs no event. Requests and responses land in an inbox (a
 * PacketQueue, sized for the credit bound) that wakes at their due
 * tick; a credit lands in the port's credit pool as a due tick only,
 * and the port counts every return due by now when it next sends.
 * Only a port refused for lack of credit schedules a wake: at the
 * stalled peer's earliest outstanding return, or at a return's due
 * tick when it is delivered. The wake sends the ordinary retry to the
 * local peer.
 *
 * Responses route back by requestor id, never by state pushed onto
 * the packet, so a checkpoint of in-flight packets needs nothing from
 * the crossbar. Each front port declares the ids it answers for: a
 * generator's front its own id, a shared cache's front the ids of
 * every requestor behind it.
 *
 * The minimum latency of any message is min(frontendLatency,
 * responseLatency) — the lookahead to configure the simulator's shards
 * with (see lookahead()).
 *
 * Construction order matters: add every channel first (inside that
 * channel's ShardScope), then every front port (inside its
 * requestor's shard scope); addFrontPort() needs the channel count
 * for credit sizing and addChannel() fatals once a front exists.
 */

#ifndef DRAMCTRL_XBAR_XBAR_H
#define DRAMCTRL_XBAR_XBAR_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/addr_range.hh"
#include "mem/port.hh"
#include "sim/shard.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace dramctrl {

class Simulator;

/** Crossbar parameters (one lane per direction per port). */
struct XBarConfig
{
    /** Crossbar clock period. */
    Tick clockPeriod = fromNs(1.0);
    /** Datapath width in bytes per crossbar cycle. */
    unsigned width = 16;
    /** Latency of any front-side -> channel-side message. */
    Tick frontendLatency = fromNs(3.0);
    /** Latency of any channel-side -> front-side message. */
    Tick responseLatency = fromNs(3.0);
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

/**
 * Channel count, address map and routing fabric between front-side
 * requestors and per-channel memory controllers. Not a SimObject
 * itself — it owns one FrontPort / ChannelPort SimObject per attached
 * port, each living on the shard that was current when it was added.
 */
class Crossbar
{
  public:
    /**
     * Request tokens per (front, channel) and response tokens per
     * (channel, front): the in-flight cap of each direction.
     */
    static constexpr unsigned kCredits = 4;

    Crossbar(Simulator &sim, std::string name, const XBarConfig &cfg);
    ~Crossbar();

    Crossbar(const Crossbar &) = delete;
    Crossbar &operator=(const Crossbar &) = delete;

    /** Minimum message latency: the engine lookahead to use. */
    static Tick lookahead(const XBarConfig &cfg);

    const std::string &name() const { return name_; }

    /**
     * Attach channel @p range served by @p ctrl_port. Call inside the
     * channel's ShardScope; must precede every addFrontPort(). Fatal
     * when @p range overlaps a channel already attached.
     */
    void addChannel(ResponsePort &ctrl_port, AddrRange range);

    /**
     * Create the front port that answers responses for every
     * requestor in @p ids and return the ResponsePort to bind the
     * requestor's RequestPort to. Call inside the requestor's
     * ShardScope. Fatal when an id already has a front.
     */
    ResponsePort &addFrontPort(const std::vector<RequestorId> &ids);

    unsigned numChannels() const
    {
        return static_cast<unsigned>(channels_.size());
    }
    unsigned numFronts() const
    {
        return static_cast<unsigned>(fronts_.size());
    }

    /**
     * No queued request or response, no stall, and every credit home:
     * a return whose due tick has passed counts as home, even though
     * no event has counted it yet; one still in flight does not.
     */
    bool idle() const;

    /**
     * Ring capacity of every inbox: each front's response inbox, then
     * each channel's request inbox. Wiring sizes each for its credit
     * bound, kCredits per peer, so no run grows them.
     */
    std::vector<std::size_t> inboxCapacities() const;

    /** Channel index serving @p addr; fatals when unmapped. */
    unsigned routeChannel(Addr addr) const;

  private:
    class FrontPort;
    class ChannelPort;

    /** Front-port index for requestor @p id; fatals when unknown. */
    unsigned routeFront(RequestorId id) const;

    /** Ticks a packet of @p size bytes occupies a crossbar lane. */
    Tick occupancy(unsigned size) const;

    /**
     * Send @p pkt / @p arg to @p box on @p to_shard, due @p when.
     * Delivers directly when @p box is on the sender's shard (always,
     * when the simulator is unsharded: every shard id is 0), and
     * posts through the sharded engine only across shards.
     */
    void postMsg(unsigned from_shard, unsigned to_shard, Tick when,
                 ShardMailbox &box, Packet *pkt, std::uint64_t arg);

    Simulator &sim_;
    std::string name_;
    XBarConfig cfg_;

    std::vector<std::unique_ptr<ChannelPort>> channels_;
    std::vector<std::unique_ptr<FrontPort>> fronts_;
    std::vector<AddrRange> ranges_;
    /** requestorId -> front index (dense, grows as fronts attach). */
    std::vector<unsigned> frontByRequestor_;

    /**
     * Fast interleaved route: all ranges share one (granularity,
     * channel-count) interleave and range i matches channel i.
     */
    bool fastRoute_ = true;
    unsigned granShift_ = 0;
    Addr chanMask_ = 0;
};

} // namespace dramctrl

#endif // DRAMCTRL_XBAR_XBAR_H
