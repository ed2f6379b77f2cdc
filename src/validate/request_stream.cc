#include "validate/request_stream.hh"

#include <algorithm>

#include "sim/logging.hh"
#include "sim/random.hh"

namespace dramctrl {
namespace validate {

RequestStream
generateStream(const StreamParams &params, std::uint64_t seed)
{
    static const unsigned kSizes[] = {16, 32, 64, 128, 256};

    Random rng(seed);
    RequestStream stream;
    stream.reserve(params.numRequests);
    Tick tick = 0;
    for (std::uint64_t i = 0; i < params.numRequests; ++i) {
        TraceEntry e;
        if (i == params.numRequests / 2)
            tick += params.idlePause;
        tick += params.minITT == params.maxITT
                    ? params.minITT
                    : rng.uniform(params.minITT, params.maxITT);
        e.tick = tick;
        e.isRead = rng.uniform(1, 100) <= params.readPct;
        e.size = params.mixedSizes
                     ? kSizes[rng.uniform(0, 4)]
                     : params.blockSize;
        // Align to 16 bytes and keep the span inside the window.
        Addr limit = params.windowSize > e.size
                         ? params.windowSize - e.size
                         : 0;
        e.addr = rng.uniform(0, limit / 16) * 16;
        stream.push_back(e);
    }
    return stream;
}

ExactlyOnceCheck::ExactlyOnceCheck(const RequestStream &stream)
    : stream_(stream), cpuSide_(*this), memSide_(*this),
      answered_(stream.size(), false)
{
    ids_.reserve(stream.size());
}

bool
ExactlyOnceCheck::recvReq(Packet *pkt)
{
    DC_ASSERT(ids_.size() < stream_.size(),
              "request %s beyond the end of the stream",
              pkt->toString().c_str());
    DC_ASSERT(ids_.empty() || pkt->id() > ids_.back(),
              "request %s out of stream order", pkt->toString().c_str());
    // Noted before forwarding, in case the model answers at once.
    ids_.push_back(pkt->id());
    if (memSide_.sendTimingReq(pkt))
        return true;
    ids_.pop_back();
    return false;
}

bool
ExactlyOnceCheck::recvResp(Packet *pkt)
{
    DC_ASSERT(pkt->isResponse(), "check received %s",
              pkt->toString().c_str());
    auto it = std::lower_bound(ids_.begin(), ids_.end(), pkt->id());
    const std::size_t idx = it - ids_.begin();
    const bool known = it != ids_.end() && *it == pkt->id();
    if (!known || answered_[idx]) {
        ++(known ? duplicates_ : spurious_);
        ++responses_;
        delete pkt;
        return true;
    }

    const TraceEntry &e = stream_[idx];
    const bool mismatch = pkt->isRead() != e.isRead ||
                          pkt->addr() != e.addr || pkt->size() != e.size;
    if (!cpuSide_.sendTimingResp(pkt))
        return false;
    ++responses_;
    mismatched_ += mismatch;
    answered_[idx] = true;
    ++answeredCount_;
    return true;
}

} // namespace validate
} // namespace dramctrl
