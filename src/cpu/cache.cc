#include "cpu/cache.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace dramctrl {

Cache::CacheStats::CacheStats(Cache &cache)
    : hits(&cache.statGroup(), "hits", "requests hitting in the cache"),
      misses(&cache.statGroup(), "misses",
             "requests allocating a new MSHR"),
      mshrHits(&cache.statGroup(), "mshrHits",
               "requests coalesced onto an in-flight miss"),
      writebacks(&cache.statGroup(), "writebacks",
                 "dirty blocks written back"),
      blockedNoMshr(&cache.statGroup(), "blockedNoMshr",
                    "requests refused with all MSHRs busy"),
      blockedNoTarget(&cache.statGroup(), "blockedNoTarget",
                      "requests refused with MSHR targets full"),
      totMissLatency(&cache.statGroup(), "totMissLatency",
                     "total fill latency (ticks)"),
      prefetchesIssued(&cache.statGroup(), "prefetchesIssued",
                       "prefetch fills issued"),
      prefetchHits(&cache.statGroup(), "prefetchHits",
                   "demand hits on prefetched lines"),
      prefetchLate(&cache.statGroup(), "prefetchLate",
                   "demand misses caught by an in-flight prefetch"),
      missRate(&cache.statGroup(), "missRate",
               "fraction of lookups that miss",
               [this] {
                   double n = hits.value() + misses.value() +
                              mshrHits.value();
                   return n > 0 ? (misses.value() + mshrHits.value()) / n
                                : 0.0;
               }),
      avgMissLatencyNs(&cache.statGroup(), "avgMissLatencyNs",
                       "average fill latency (ns)",
                       [this] {
                           double n = misses.value();
                           return n > 0
                                      ? toNs(static_cast<Tick>(
                                            totMissLatency.value())) /
                                            n
                                      : 0.0;
                       })
{
}

Cache::Cache(Simulator &sim, std::string name, const CacheConfig &cfg)
    : SimObject(sim, std::move(name)), cfg_(cfg),
      cpuSide_(this->name() + ".cpuSide", *this),
      memSide_(this->name() + ".memSide", *this),
      respQueue_(*this, "respQueue.sendEvent", Event::kResponsePriority,
                 cpuSide_),
      prefetcher_(cfg.prefetcher, cfg.blockSize)
{
    if (!isPowerOf2(cfg_.blockSize))
        fatal("cache '%s': block size %u is not a power of two",
              this->name().c_str(), cfg_.blockSize);
    if (cfg_.size % (static_cast<std::uint64_t>(cfg_.assoc) *
                     cfg_.blockSize) != 0)
        fatal("cache '%s': size is not a whole number of sets",
              this->name().c_str());
    std::uint64_t num_sets =
        cfg_.size / (static_cast<std::uint64_t>(cfg_.assoc) *
                     cfg_.blockSize);
    if (!isPowerOf2(num_sets))
        fatal("cache '%s': set count %llu is not a power of two",
              this->name().c_str(),
              static_cast<unsigned long long>(num_sets));
    if (cfg_.mshrs == 0 || cfg_.targetsPerMshr == 0)
        fatal("cache '%s': MSHR parameters must be non-zero",
              this->name().c_str());

    sets_.assign(num_sets, std::vector<Line>(cfg_.assoc));
    mshrs_.resize(cfg_.mshrs);
    for (Mshr &mshr : mshrs_)
        mshr.targets.reserve(cfg_.targetsPerMshr);
    memReqQueue_.init(2 * cfg_.mshrs);
    // Room for every parked target of a fill at once, so a steady
    // state answers without growing the queue.
    respQueue_.reserve(cfg_.mshrs * cfg_.targetsPerMshr);
    stats_ = std::make_unique<CacheStats>(*this);
}

Cache::~Cache()
{
    for (Mshr &mshr : mshrs_) {
        for (Packet *pkt : mshr.targets) {
            // In-flight targets may carry crossbar route state from
            // the request path; release it before the packet.
            while (pkt->senderState() != nullptr)
                delete pkt->popSenderState();
            delete pkt;
        }
    }
    for (std::size_t i = 0; i < memReqQueue_.size(); ++i)
        delete memReqQueue_[i];
}

bool
Cache::idle() const
{
    return mshrsInUse_ == 0 && memReqQueue_.empty() &&
           respQueue_.empty() && !memWaitingRetry_;
}

double
Cache::avgMissLatencyNs() const
{
    return stats_->avgMissLatencyNs.value();
}

std::size_t
Cache::setIndex(Addr block_addr) const
{
    return (block_addr / cfg_.blockSize) % sets_.size();
}

Cache::Line *
Cache::lookup(Addr block_addr)
{
    for (Line &line : sets_[setIndex(block_addr)]) {
        if (line.valid && line.tag == block_addr)
            return &line;
    }
    return nullptr;
}

const Cache::Line *
Cache::lookup(Addr block_addr) const
{
    return const_cast<Cache *>(this)->lookup(block_addr);
}

bool
Cache::isCached(Addr addr) const
{
    return lookup(blockAlign(addr)) != nullptr;
}

bool
Cache::isDirty(Addr addr) const
{
    const Line *line = lookup(blockAlign(addr));
    return line != nullptr && line->dirty;
}

Cache::Mshr *
Cache::findMshr(Addr block_addr)
{
    // Valid MSHRs track distinct blocks, so at most one matches.
    for (Mshr &mshr : mshrs_) {
        if (mshr.valid && mshr.blockAddr == block_addr)
            return &mshr;
    }
    return nullptr;
}

Cache::Mshr &
Cache::allocMshr(Addr block_addr, bool is_prefetch)
{
    auto it = std::find_if(mshrs_.begin(), mshrs_.end(),
                           [](const Mshr &m) { return !m.valid; });
    DC_ASSERT(it != mshrs_.end(), "no free MSHR");
    it->valid = true;
    it->blockAddr = block_addr;
    it->issued = curTick();
    it->isPrefetch = is_prefetch;
    ++mshrsInUse_;
    return *it;
}

bool
Cache::handleCpuReq(Packet *pkt)
{
    DC_ASSERT(pkt->isRequest(), "cache received %s",
              pkt->toString().c_str());
    Addr block = blockAlign(pkt->addr());
    DC_ASSERT(blockAlign(pkt->endAddr() - 1) == block,
              "request %s crosses a cache block boundary",
              pkt->toString().c_str());

    if (Line *line = lookup(block)) {
        // Hit: respond after the lookup latency.
        ++stats_->hits;
        if (line->prefetched) {
            ++stats_->prefetchHits;
            line->prefetched = false;
        }
        line->lastUsed = ++useCounter_;
        if (pkt->isWrite())
            line->dirty = true;
        pkt->makeResponse();
        respQueue_.deliver(curTick() + cfg_.hitLatency, pkt, 0);
        runPrefetcher(block, pkt->requestorId());
        return true;
    }

    if (Mshr *mshr = findMshr(block)) {
        // Miss to an already in-flight block: coalesce.
        if (mshr->targets.size() >= cfg_.targetsPerMshr) {
            ++stats_->blockedNoTarget;
            cpuBlocked_ = true;
            return false;
        }
        if (mshr->isPrefetch) {
            // A late-but-useful prefetch: the demand request rides it.
            ++stats_->prefetchLate;
            mshr->isPrefetch = false;
        }
        ++stats_->mshrHits;
        mshr->targets.push_back(pkt);
        return true;
    }

    if (mshrsInUse_ >= cfg_.mshrs) {
        ++stats_->blockedNoMshr;
        cpuBlocked_ = true;
        return false;
    }

    // New miss: allocate an MSHR and issue the fill (write-allocate, so
    // writes also fetch the block first).
    ++stats_->misses;
    allocMshr(block, false).targets.push_back(pkt);

    auto *fill = new Packet(MemCmd::ReadReq, block, cfg_.blockSize,
                            pkt->requestorId());
    fill->setInjectedTick(curTick());
    sendMemReq(fill);
    runPrefetcher(block, pkt->requestorId());
    return true;
}

void
Cache::runPrefetcher(Addr block_addr, RequestorId requestor)
{
    if (!cfg_.prefetcher.enable)
        return;

    std::vector<Addr> candidates =
        prefetcher_.notify(block_addr, requestor);
    for (Addr cand : candidates) {
        // Keep at least one MSHR free for demand misses, and skip
        // blocks already present or in flight.
        if (mshrsInUse_ + 1 >= cfg_.mshrs)
            return;
        if (lookup(cand) != nullptr || findMshr(cand) != nullptr)
            continue;

        allocMshr(cand, true);

        auto *fill = new Packet(MemCmd::ReadReq, cand, cfg_.blockSize,
                                requestor);
        fill->setInjectedTick(curTick());
        ++stats_->prefetchesIssued;
        sendMemReq(fill);
    }
}

void
Cache::sendMemReq(Packet *pkt)
{
    memReqQueue_.push_back(pkt);
    trySendMemReqs();
}

void
Cache::trySendMemReqs()
{
    while (!memReqQueue_.empty() && !memWaitingRetry_) {
        if (!memSide_.sendTimingReq(memReqQueue_.front())) {
            memWaitingRetry_ = true;
            return;
        }
        memReqQueue_.pop_front();
    }
}

void
Cache::memRetry()
{
    DC_ASSERT(memWaitingRetry_, "unexpected mem-side retry");
    memWaitingRetry_ = false;
    trySendMemReqs();
}

void
Cache::install(Addr block_addr, bool dirty, bool prefetched,
               RequestorId requestor)
{
    auto &set = sets_[setIndex(block_addr)];
    Line *victim = &set[0];
    for (Line &line : set) {
        if (!line.valid) {
            victim = &line;
            break;
        }
        if (line.lastUsed < victim->lastUsed)
            victim = &line;
    }

    if (victim->valid && victim->dirty) {
        // Write back the dirty victim before reusing the frame.
        ++stats_->writebacks;
        auto *wb = new Packet(MemCmd::WriteReq, victim->tag,
                              cfg_.blockSize, requestor);
        wb->setInjectedTick(curTick());
        sendMemReq(wb);
    }

    victim->tag = block_addr;
    victim->valid = true;
    victim->dirty = dirty;
    victim->prefetched = prefetched;
    victim->lastUsed = ++useCounter_;
}

bool
Cache::handleMemResp(Packet *pkt)
{
    DC_ASSERT(pkt->isResponse(), "cache received %s",
              pkt->toString().c_str());

    if (pkt->cmd() == MemCmd::WriteResp) {
        // Acknowledgement of one of our writebacks.
        delete pkt;
        return true;
    }

    // A fill for the MSHR tracking this block.
    Addr block = blockAlign(pkt->addr());
    Mshr *mshr = findMshr(block);
    DC_ASSERT(mshr != nullptr, "fill %s with no matching MSHR",
              pkt->toString().c_str());

    if (!mshr->isPrefetch)
        stats_->totMissLatency +=
            static_cast<double>(curTick() - mshr->issued);

    bool dirty = std::any_of(mshr->targets.begin(), mshr->targets.end(),
                             [](const Packet *t) {
                                 return t->isWrite();
                             });
    install(block, dirty, mshr->isPrefetch, pkt->requestorId());

    // Answer every coalesced target.
    for (Packet *target : mshr->targets) {
        target->makeResponse();
        respQueue_.deliver(curTick() + cfg_.hitLatency, target, 0);
    }
    mshr->targets.clear();
    mshr->valid = false;
    --mshrsInUse_;
    delete pkt;

    unblockCpu();
    return true;
}

void
Cache::unblockCpu()
{
    if (cpuBlocked_) {
        cpuBlocked_ = false;
        cpuSide_.sendReqRetry();
    }
}

} // namespace dramctrl
