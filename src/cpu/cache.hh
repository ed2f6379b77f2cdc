/**
 * @file
 * Non-blocking write-back cache with MSHRs.
 *
 * The substrate for the paper's full-system case studies (Section IV):
 * gem5's classic cache reduced to the properties that shape DRAM
 * traffic — set-associative LRU lookup, write-allocate with write-back
 * (so the DRAM sees fills and evictions, not every store), a bounded
 * number of MSHRs with target coalescing (so memory-level parallelism
 * and the stall feedback loop are faithful), and full flow control on
 * both ports.
 */

#ifndef DRAMCTRL_CPU_CACHE_H
#define DRAMCTRL_CPU_CACHE_H

#include <memory>
#include <string>
#include <vector>

#include "cpu/prefetcher.hh"
#include "mem/packet.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "sim/ring_buffer.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"

namespace dramctrl {

struct CacheConfig
{
    std::uint64_t size = 32 * 1024;
    unsigned assoc = 2;
    unsigned blockSize = 64;
    Tick hitLatency = fromNs(1.0);
    /** Miss status holding registers (outstanding distinct blocks). */
    unsigned mshrs = 4;
    /** Requests coalesced onto one in-flight block. */
    unsigned targetsPerMshr = 8;
    /** Optional stride prefetcher (disabled by default). */
    PrefetcherConfig prefetcher;
};

class Cache : public SimObject
{
  public:
    Cache(Simulator &sim, std::string name, const CacheConfig &cfg);
    ~Cache() override;

    ResponsePort &cpuSidePort() { return cpuSide_; }
    RequestPort &memSidePort() { return memSide_; }

    const CacheConfig &config() const { return cfg_; }

    /** True when no misses are in flight and nothing is queued. */
    bool idle() const;

    struct CacheStats
    {
        explicit CacheStats(Cache &cache);

        stats::Scalar hits;
        stats::Scalar misses;
        stats::Scalar mshrHits;
        stats::Scalar writebacks;
        stats::Scalar blockedNoMshr;
        stats::Scalar blockedNoTarget;
        stats::Scalar totMissLatency;
        stats::Scalar prefetchesIssued;
        /** Demand hits on lines a prefetch brought in. */
        stats::Scalar prefetchHits;
        /** Demand misses that found their block already in flight
         *  thanks to a prefetch (late but useful). */
        stats::Scalar prefetchLate;
        stats::Formula missRate;
        stats::Formula avgMissLatencyNs;
    };

    const CacheStats &cacheStats() const { return *stats_; }

    /** Mean miss latency (fill request to fill response) in ns. */
    double avgMissLatencyNs() const;

    /** Test hook: true if the block containing @p addr is cached. */
    bool isCached(Addr addr) const;
    /** Test hook: true if that block is cached dirty. */
    bool isDirty(Addr addr) const;

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        /** Brought in by a prefetch and not yet demanded. */
        bool prefetched = false;
        std::uint64_t lastUsed = 0;
    };

    /**
     * One of the cfg.mshrs registers, all built at construction.
     * Freeing one clears its targets but keeps their storage.
     */
    struct Mshr
    {
        bool valid = false;
        Addr blockAddr = 0;
        Tick issued = 0;
        /** Allocated by the prefetcher (no demand target yet). */
        bool isPrefetch = false;
        std::vector<Packet *> targets;
    };

    class CpuSide : public ResponsePort
    {
      public:
        CpuSide(std::string name, Cache &cache)
            : ResponsePort(std::move(name)), cache_(cache)
        {}

        bool recvTimingReq(Packet *pkt) override
        {
            return cache_.handleCpuReq(pkt);
        }

        void recvRespRetry() override { cache_.respQueue_.resume(); }

      private:
        Cache &cache_;
    };

    class MemSide : public RequestPort
    {
      public:
        MemSide(std::string name, Cache &cache)
            : RequestPort(std::move(name)), cache_(cache)
        {}

        bool recvTimingResp(Packet *pkt) override
        {
            return cache_.handleMemResp(pkt);
        }

        void recvReqRetry() override { cache_.memRetry(); }

      private:
        Cache &cache_;
    };

    bool handleCpuReq(Packet *pkt);
    bool handleMemResp(Packet *pkt);
    void memRetry();

    /** Queue an outbound miss/writeback request, preserving order. */
    void sendMemReq(Packet *pkt);
    void trySendMemReqs();

    Addr blockAlign(Addr addr) const
    {
        return addr & ~static_cast<Addr>(cfg_.blockSize - 1);
    }

    std::size_t setIndex(Addr block_addr) const;
    Line *lookup(Addr block_addr);
    const Line *lookup(Addr block_addr) const;

    /**
     * Install @p block_addr, evicting (and writing back) as needed.
     * A writeback carries @p requestor, the id of the fill that
     * evicted its block.
     */
    void install(Addr block_addr, bool dirty, bool prefetched,
                 RequestorId requestor);

    /** Feed the prefetcher and issue candidate fills on spare MSHRs. */
    void runPrefetcher(Addr block_addr, RequestorId requestor);

    Mshr *findMshr(Addr block_addr);
    /** Claim a free MSHR for @p block_addr; one must be free. */
    Mshr &allocMshr(Addr block_addr, bool is_prefetch);

    void unblockCpu();

    CacheConfig cfg_;
    CpuSide cpuSide_;
    MemSide memSide_;
    PacketQueue respQueue_;

    std::vector<std::vector<Line>> sets_;
    std::uint64_t useCounter_ = 0;

    std::vector<Mshr> mshrs_;
    /** MSHRs currently valid. */
    unsigned mshrsInUse_ = 0;
    StridePrefetcher prefetcher_;

    /**
     * Outbound request FIFO (fills and writebacks), sized 2 x mshrs.
     * Each queued fill holds an MSHR. Everything queued before the
     * last fill sent has been sent, so each queued writeback was
     * queued by a fill that completed later, one of the at most
     * mshrs fills in flight when the last fill sent was queued.
     */
    RingBuffer<Packet *> memReqQueue_;
    bool memWaitingRetry_ = false;

    bool cpuBlocked_ = false;

    std::unique_ptr<CacheStats> stats_;
};

} // namespace dramctrl

#endif // DRAMCTRL_CPU_CACHE_H
