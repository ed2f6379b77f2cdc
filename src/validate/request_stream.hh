/**
 * @file
 * Explicit request streams for differential validation.
 *
 * The differential runner must feed *byte-identical* stimulus to both
 * controller models, and the shrinker must be able to cut the stimulus
 * down to a minimal reproducer. Both needs point away from re-seeding
 * live generators and towards a materialised stream: a vector of trace
 * entries (absolute tick, direction, address, size) generated once
 * from a seed, replayed into each model by a TracePlayer as an intent
 * schedule, and trivially sliceable for delta debugging.
 */

#ifndef DRAMCTRL_VALIDATE_REQUEST_STREAM_H
#define DRAMCTRL_VALIDATE_REQUEST_STREAM_H

#include <cstdint>
#include <vector>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/types.hh"
#include "trafficgen/trace.hh"

namespace dramctrl {
namespace validate {

/** A scripted request stream, tick-ordered. */
using RequestStream = std::vector<TraceEntry>;

/** Knobs for stream sampling (serialised into repro files). */
struct StreamParams
{
    std::uint64_t numRequests = 500;
    /** Address window [0, windowSize); must fit the channel. */
    std::uint64_t windowSize = 1ULL << 22;
    unsigned readPct = 70;
    /** Bounds of the gap between consecutive requests. */
    Tick minITT = fromNs(3.0);
    Tick maxITT = fromNs(30.0);
    /**
     * With mixedSizes, request sizes are drawn from {16, 32, 64, 128,
     * 256} bytes to exercise burst chopping and sub-burst accesses;
     * otherwise every request is blockSize bytes.
     */
    bool mixedSizes = false;
    unsigned blockSize = 64;
    /** One extra idle gap before the middle request (0: none). */
    Tick idlePause = 0;
};

/** Materialise a stream from @p params and @p seed (deterministic). */
RequestStream generateStream(const StreamParams &params,
                             std::uint64_t seed);

/**
 * The differential runner's exactly-once oracle: a pass-through
 * between the player of a stream and the model under test. Requests,
 * retries and flow control pass unchanged; each response is matched to
 * the accepted request it answers. A response that answers no accepted
 * request (spurious) or one already answered (duplicate) is counted
 * and dropped. Every other response goes on to the player, counted as
 * mismatched when its direction, address or size differ from its
 * stream entry.
 */
class ExactlyOnceCheck
{
  public:
    /** @p stream must outlive the check; the player replays it. */
    explicit ExactlyOnceCheck(const RequestStream &stream);

    /** Port facing the player. */
    ResponsePort &cpuSidePort() { return cpuSide_; }
    /** Port facing the model. */
    RequestPort &memSidePort() { return memSide_; }

    /** Every response seen, including the dropped ones. */
    std::uint64_t responses() const { return responses_; }
    std::uint64_t spurious() const { return spurious_; }
    std::uint64_t duplicates() const { return duplicates_; }
    std::uint64_t mismatched() const { return mismatched_; }

    /** Stream entries with no response (after a timeout: the lost). */
    std::uint64_t unanswered() const
    {
        return stream_.size() - answeredCount_;
    }

    /** Accepted requests still waiting for their response. */
    std::uint64_t outstanding() const
    {
        return ids_.size() - answeredCount_;
    }

  private:
    class CpuSide : public ResponsePort
    {
      public:
        explicit CpuSide(ExactlyOnceCheck &check)
            : ResponsePort("check.cpuSide"), check_(check)
        {}

        bool
        recvTimingReq(Packet *pkt) override
        {
            return check_.recvReq(pkt);
        }

        void recvRespRetry() override { check_.memSide_.sendRespRetry(); }

      private:
        ExactlyOnceCheck &check_;
    };

    class MemSide : public RequestPort
    {
      public:
        explicit MemSide(ExactlyOnceCheck &check)
            : RequestPort("check.memSide"), check_(check)
        {}

        bool
        recvTimingResp(Packet *pkt) override
        {
            return check_.recvResp(pkt);
        }

        void recvReqRetry() override { check_.cpuSide_.sendReqRetry(); }

      private:
        ExactlyOnceCheck &check_;
    };

    bool recvReq(Packet *pkt);
    bool recvResp(Packet *pkt);

    const RequestStream &stream_;
    CpuSide cpuSide_;
    MemSide memSide_;

    /**
     * Packet id of each accepted request, by stream index. An in-order
     * player creates each packet after the previous one was accepted,
     * so the ids ascend.
     */
    std::vector<std::uint64_t> ids_;
    std::vector<bool> answered_;
    std::uint64_t answeredCount_ = 0;

    std::uint64_t responses_ = 0;
    std::uint64_t spurious_ = 0;
    std::uint64_t duplicates_ = 0;
    std::uint64_t mismatched_ = 0;
};

} // namespace validate
} // namespace dramctrl

#endif // DRAMCTRL_VALIDATE_REQUEST_STREAM_H
