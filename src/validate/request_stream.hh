/**
 * @file
 * Explicit request streams for differential validation.
 *
 * The differential runner must feed *byte-identical* stimulus to both
 * controller models, and the shrinker must be able to cut the stimulus
 * down to a minimal reproducer. Both needs point away from re-seeding
 * live generators and towards a materialised stream: a vector of
 * (gap, address, size, is-read) tuples generated once from a seed,
 * replayed into each model by a StreamPlayer, and trivially sliceable
 * for delta debugging.
 */

#ifndef DRAMCTRL_VALIDATE_REQUEST_STREAM_H
#define DRAMCTRL_VALIDATE_REQUEST_STREAM_H

#include <string>
#include <vector>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "sim/types.hh"

namespace dramctrl {
namespace validate {

/** One scripted request. */
struct StreamRequest
{
    /** Delay after the previous injection (first: after tick 0). */
    Tick gap = 0;
    Addr addr = 0;
    unsigned size = 64;
    bool isRead = true;

    bool operator==(const StreamRequest &) const = default;
};

struct RequestStream
{
    std::vector<StreamRequest> reqs;

    std::size_t size() const { return reqs.size(); }
    bool empty() const { return reqs.empty(); }

    /** Total bytes requested (both directions). */
    std::uint64_t totalBytes() const;
};

/** Knobs for stream sampling (serialised into repro files). */
struct StreamParams
{
    std::uint64_t numRequests = 500;
    /** Address window [0, windowSize); must fit the channel. */
    std::uint64_t windowSize = 1ULL << 22;
    unsigned readPct = 70;
    Tick minITT = fromNs(3.0);
    Tick maxITT = fromNs(30.0);
    /**
     * With mixedSizes, request sizes are drawn from {16, 32, 64, 128,
     * 256} bytes to exercise burst chopping and sub-burst accesses;
     * otherwise every request is blockSize bytes.
     */
    bool mixedSizes = false;
    unsigned blockSize = 64;
};

/** Materialise a stream from @p params and @p seed (deterministic). */
RequestStream generateStream(const StreamParams &params,
                             std::uint64_t seed);

/**
 * Replays a RequestStream through a RequestPort, honouring flow
 * control, and records one completion tick per request. The player is
 * the functional-equivalence probe of the differential runner: after a
 * run it knows whether every request was answered exactly once.
 */
class StreamPlayer : public SimObject
{
  public:
    StreamPlayer(Simulator &sim, std::string name,
                 const RequestStream &stream, RequestorId id = 0);
    ~StreamPlayer() override;

    RequestPort &port() { return port_; }

    void startup() override;

    /** All requests injected and every response received. */
    bool done() const;

    std::uint64_t injected() const { return injected_; }
    std::uint64_t responses() const { return responses_; }

    /** Responses carrying an id the player never injected. */
    std::uint64_t spuriousResponses() const { return spurious_; }

    /** Responses for a request that was already answered. */
    std::uint64_t duplicateResponses() const { return duplicates_; }

    /** Read responses whose command does not match the request. */
    std::uint64_t mismatchedResponses() const { return mismatched_; }

    /** Requests still unanswered (after a timeout: the lost ones). */
    std::uint64_t unansweredRequests() const;

    /** Completion tick per stream index; 0 = no response (yet). */
    const std::vector<Tick> &completionTicks() const
    {
        return completions_;
    }

    std::uint64_t readResponses() const { return readResponses_; }

    /** Mean end-to-end read latency in nanoseconds. */
    double avgReadLatencyNs() const;

  private:
    class Port : public RequestPort
    {
      public:
        Port(std::string name, StreamPlayer &player)
            : RequestPort(std::move(name)), player_(player)
        {}

        bool recvTimingResp(Packet *pkt) override
        {
            return player_.recvResp(pkt);
        }

        void recvReqRetry() override { player_.retry(); }

      private:
        StreamPlayer &player_;
    };

    void inject();
    void retry();
    bool recvResp(Packet *pkt);
    void scheduleNext();

    const RequestStream stream_;
    RequestorId id_;
    Port port_;

    std::uint64_t injected_ = 0;
    std::uint64_t responses_ = 0;
    std::uint64_t spurious_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t mismatched_ = 0;
    std::uint64_t readResponses_ = 0;
    Tick totReadLatency_ = 0;

    std::vector<Tick> completions_;
    /** Packet id -> stream index of in-flight requests. */
    std::vector<std::pair<std::uint64_t, std::size_t>> inflight_;

    Packet *blockedPkt_ = nullptr;
    std::size_t blockedIdx_ = 0;

    EventFunctionWrapper injectEvent_;
};

} // namespace validate
} // namespace dramctrl

#endif // DRAMCTRL_VALIDATE_REQUEST_STREAM_H
