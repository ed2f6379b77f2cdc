#include "validate/request_stream.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dramctrl {
namespace validate {

std::uint64_t
RequestStream::totalBytes() const
{
    std::uint64_t total = 0;
    for (const StreamRequest &r : reqs)
        total += r.size;
    return total;
}

RequestStream
generateStream(const StreamParams &params, std::uint64_t seed)
{
    static const unsigned kSizes[] = {16, 32, 64, 128, 256};

    Random rng(seed);
    RequestStream stream;
    stream.reqs.reserve(params.numRequests);
    for (std::uint64_t i = 0; i < params.numRequests; ++i) {
        StreamRequest r;
        r.gap = params.minITT == params.maxITT
                    ? params.minITT
                    : rng.uniform(params.minITT, params.maxITT);
        r.isRead = rng.uniform(1, 100) <= params.readPct;
        r.size = params.mixedSizes
                     ? kSizes[rng.uniform(0, 4)]
                     : params.blockSize;
        // Align to 16 bytes and keep the span inside the window.
        Addr limit = params.windowSize > r.size
                         ? params.windowSize - r.size
                         : 0;
        r.addr = rng.uniform(0, limit / 16) * 16;
        stream.reqs.push_back(r);
    }
    return stream;
}

StreamPlayer::StreamPlayer(Simulator &sim, std::string name,
                           const RequestStream &stream, RequestorId id)
    : SimObject(sim, std::move(name)), stream_(stream), id_(id),
      port_(this->name() + ".port", *this),
      completions_(stream.reqs.size(), 0),
      injectEvent_([this] { inject(); }, this->name() + ".injectEvent")
{
    inflight_.reserve(64);
}

StreamPlayer::~StreamPlayer()
{
    if (injectEvent_.scheduled())
        deschedule(injectEvent_);
    delete blockedPkt_;
}

void
StreamPlayer::startup()
{
    if (!stream_.reqs.empty())
        schedule(injectEvent_,
                 curTick() + stream_.reqs.front().gap);
}

bool
StreamPlayer::done() const
{
    return injected_ >= stream_.reqs.size() &&
           blockedPkt_ == nullptr && inflight_.empty();
}

std::uint64_t
StreamPlayer::unansweredRequests() const
{
    return static_cast<std::uint64_t>(std::count(
        completions_.begin(), completions_.end(), Tick(0)));
}

double
StreamPlayer::avgReadLatencyNs() const
{
    if (readResponses_ == 0)
        return 0.0;
    return toNs(totReadLatency_) /
           static_cast<double>(readResponses_);
}

void
StreamPlayer::scheduleNext()
{
    if (injected_ >= stream_.reqs.size() || blockedPkt_ != nullptr)
        return;
    if (!injectEvent_.scheduled())
        schedule(injectEvent_,
                 curTick() + stream_.reqs[injected_].gap);
}

void
StreamPlayer::inject()
{
    DC_ASSERT(blockedPkt_ == nullptr, "inject while blocked");
    DC_ASSERT(injected_ < stream_.reqs.size(), "stream exhausted");

    std::size_t idx = injected_;
    const StreamRequest &r = stream_.reqs[idx];
    auto *pkt =
        new Packet(r.isRead ? MemCmd::ReadReq : MemCmd::WriteReq,
                   r.addr, r.size, id_);
    pkt->setInjectedTick(curTick());
    inflight_.emplace_back(pkt->id(), idx);
    ++injected_;

    if (!port_.sendTimingReq(pkt)) {
        blockedPkt_ = pkt;
        blockedIdx_ = idx;
        return;
    }
    scheduleNext();
}

void
StreamPlayer::retry()
{
    DC_ASSERT(blockedPkt_ != nullptr, "retry with no blocked packet");
    Packet *pkt = blockedPkt_;
    blockedPkt_ = nullptr;
    if (!port_.sendTimingReq(pkt)) {
        blockedPkt_ = pkt;
        return;
    }
    scheduleNext();
}

bool
StreamPlayer::recvResp(Packet *pkt)
{
    DC_ASSERT(pkt->isResponse(), "player received %s",
              pkt->toString().c_str());
    ++responses_;

    auto it = std::find_if(inflight_.begin(), inflight_.end(),
                           [&](const auto &e) {
                               return e.first == pkt->id();
                           });
    if (it == inflight_.end()) {
        ++spurious_;
        delete pkt;
        return true;
    }
    std::size_t idx = it->second;
    inflight_.erase(it);

    if (completions_[idx] != 0)
        ++duplicates_;
    completions_[idx] = curTick();

    const StreamRequest &r = stream_.reqs[idx];
    if (pkt->isRead() != r.isRead || pkt->addr() != r.addr ||
        pkt->size() != r.size)
        ++mismatched_;

    if (pkt->cmd() == MemCmd::ReadResp) {
        ++readResponses_;
        totReadLatency_ += curTick() - pkt->injectedTick();
    }
    delete pkt;
    return true;
}

} // namespace validate
} // namespace dramctrl
