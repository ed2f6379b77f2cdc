#include "trafficgen/base_gen.hh"

#include "ckpt/ckpt.hh"
#include "sim/logging.hh"

namespace dramctrl {

BaseGen::GenStats::GenStats(BaseGen &gen)
    : sentReads(&gen.statGroup(), "sentReads", "read requests injected"),
      sentWrites(&gen.statGroup(), "sentWrites",
                 "write requests injected"),
      bytesSent(&gen.statGroup(), "bytesSent", "bytes requested"),
      recvResponses(&gen.statGroup(), "recvResponses",
                    "responses received"),
      retries(&gen.statGroup(), "retries",
              "requests initially refused downstream"),
      readLatencyHist(&gen.statGroup(), "readLatencyHist",
                      "end-to-end read latency distribution (ns)"),
      avgReadLatencyNs(&gen.statGroup(), "avgReadLatencyNs",
                       "average end-to-end read latency (ns)",
                       [this] { return readLatencyHist.mean(); }),
      xbarLatencyHist(&gen.statGroup(), "xbarLatencyHist",
                      "end-to-end latency outside the controller span "
                      "(ns)")
{
}

BaseGen::BaseGen(Simulator &sim, std::string name, const GenConfig &cfg,
                 RequestorId id)
    : SimObject(sim, std::move(name)), cfg_(cfg), id_(id),
      port_(this->name() + ".port", *this), rng_(cfg.seed),
      injectEvent_([this] { tryInject(); },
                   this->name() + ".injectEvent")
{
    if (cfg_.blockSize == 0)
        fatal("generator '%s': zero block size", this->name().c_str());
    if (cfg_.readPct > 100)
        fatal("generator '%s': read percentage %u > 100",
              this->name().c_str(), cfg_.readPct);
    if (cfg_.minITT > cfg_.maxITT)
        fatal("generator '%s': minITT exceeds maxITT",
              this->name().c_str());
    if (cfg_.windowSize < cfg_.blockSize)
        fatal("generator '%s': window smaller than one block",
              this->name().c_str());
    stats_ = std::make_unique<GenStats>(*this);
}

BaseGen::~BaseGen()
{
    if (injectEvent_.scheduled())
        deschedule(injectEvent_);
    delete blockedPkt_;
}

void
BaseGen::startup()
{
    if (cfg_.numRequests == 0 || sent_ < cfg_.numRequests)
        schedule(injectEvent_, std::max(curTick(), cfg_.startTick));
}

bool
BaseGen::done() const
{
    return cfg_.numRequests != 0 && sent_ >= cfg_.numRequests &&
           outstanding_ == 0 && blockedPkt_ == nullptr;
}

double
BaseGen::avgReadLatencyNs() const
{
    return stats_->avgReadLatencyNs.value();
}

std::uint64_t
BaseGen::configHash() const
{
    std::string shape = formatString(
        "gen:%llx:%llu:%u:%u:%llu:%llu:%u:%llu",
        static_cast<unsigned long long>(cfg_.startAddr),
        static_cast<unsigned long long>(cfg_.windowSize),
        cfg_.blockSize, cfg_.readPct,
        static_cast<unsigned long long>(cfg_.minITT),
        static_cast<unsigned long long>(cfg_.maxITT),
        cfg_.maxOutstanding,
        static_cast<unsigned long long>(cfg_.startTick));
    return ckpt::fnv1a(shape);
}

void
BaseGen::checkpoint(ckpt::Io &io)
{
    io.check("cfgHash", configHash(), "traffic-generator configuration");
    io.u64("numRequests", cfg_.numRequests);
    io.fields("rng", rng_.rawState(), rng_.rawInc());
    io.u64("sent", sent_);
    io.u64("outstanding", outstanding_);
    io.flag("throttled", throttled_);
    io.packet("blockedPkt", blockedPkt_);
    io.event("injectEvent", eventq(), injectEvent_);
}

void
BaseGen::extendRun(std::uint64_t extra_requests, std::uint64_t reseed)
{
    cfg_.numRequests += extra_requests;
    rng_ = Random(reseed);
    if (!injectEvent_.scheduled() && !throttled_ &&
        blockedPkt_ == nullptr &&
        (cfg_.numRequests == 0 || sent_ < cfg_.numRequests))
        schedule(injectEvent_, curTick() + drawITT());
}

bool
BaseGen::nextIsRead()
{
    return rng_.uniform(1, 100) <= cfg_.readPct;
}

Tick
BaseGen::drawITT()
{
    if (cfg_.minITT == cfg_.maxITT)
        return cfg_.minITT;
    return rng_.uniform(cfg_.minITT, cfg_.maxITT);
}

void
BaseGen::scheduleNext()
{
    if (cfg_.numRequests != 0 && sent_ >= cfg_.numRequests)
        return;
    if (blockedPkt_ != nullptr || throttled_)
        return; // woken by retry or by a response instead
    if (!injectEvent_.scheduled())
        schedule(injectEvent_, curTick() + drawITT());
}

void
BaseGen::tryInject()
{
    DC_ASSERT(blockedPkt_ == nullptr, "inject while blocked");

    if (cfg_.maxOutstanding != 0 &&
        outstanding_ >= cfg_.maxOutstanding) {
        // Wait for a response to free a slot.
        throttled_ = true;
        return;
    }

    bool is_read = nextIsRead();
    Addr addr = nextAddr();
    auto *pkt = new Packet(is_read ? MemCmd::ReadReq : MemCmd::WriteReq,
                           addr, cfg_.blockSize, id_);
    pkt->setInjectedTick(curTick());

    if (is_read)
        ++stats_->sentReads;
    else
        ++stats_->sentWrites;
    stats_->bytesSent += cfg_.blockSize;
    ++sent_;
    ++outstanding_;

    if (!port_.sendTimingReq(pkt)) {
        // Downstream is full: hold the packet, undo nothing (it still
        // counts as injected), and wait for the retry.
        ++stats_->retries;
        blockedPkt_ = pkt;
        return;
    }

    scheduleNext();
}

void
BaseGen::recvReqRetry()
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
BaseGen::recvTimingResp(Packet *pkt)
{
    DC_ASSERT(pkt->isResponse(), "generator received %s",
              pkt->toString().c_str());
    ++stats_->recvResponses;
    DC_ASSERT(outstanding_ > 0, "response with nothing outstanding");
    --outstanding_;

    if (pkt->cmd() == MemCmd::ReadResp) {
        Tick lat = curTick() - pkt->injectedTick();
        stats_->readLatencyHist.sample(lat);

        // The controller's span decomposes the time from queue entry to
        // response launch; anything beyond that is interconnect and
        // delivery. The difference can never be negative: the response
        // arrives no earlier than the controller launched it, and the
        // packet entered the controller queue no earlier than it was
        // injected.
        const stats::LatencySpan &span = pkt->span();
        if (span.valid) {
            DC_ASSERT(span.consistent(),
                      "inconsistent latency span on %s",
                      pkt->toString().c_str());
            Tick inner = span.total();
            DC_ASSERT(inner <= lat,
                      "span total %llu exceeds end-to-end latency %llu "
                      "for %s",
                      static_cast<unsigned long long>(inner),
                      static_cast<unsigned long long>(lat),
                      pkt->toString().c_str());
            stats_->xbarLatencyHist.sample(lat - inner);
        }
    }
    delete pkt;

    if (throttled_) {
        throttled_ = false;
        if (blockedPkt_ == nullptr && !injectEvent_.scheduled() &&
            (cfg_.numRequests == 0 || sent_ < cfg_.numRequests))
            schedule(injectEvent_, curTick() + drawITT());
    }
    return true;
}

} // namespace dramctrl
