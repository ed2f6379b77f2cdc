/**
 * @file
 * Base class for synthetic traffic generators (Section III-A).
 *
 * A generator injects read/write requests through a RequestPort at a
 * configurable inter-transaction time, honouring the port's flow
 * control (a refused request is held and re-sent on retry, modelling a
 * blocked requestor). It records end-to-end latency from injection to
 * response — the paper's latency metric, which deliberately includes
 * all queueing and serialisation between the generator and the DRAM.
 */

#ifndef DRAMCTRL_TRAFFICGEN_BASE_GEN_H
#define DRAMCTRL_TRAFFICGEN_BASE_GEN_H

#include <string>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "stats/stats.hh"
#include "stats/tick_histogram.hh"

namespace dramctrl {

/** Common generator knobs. */
struct GenConfig
{
    /** Base of the address window the generator plays in. */
    Addr startAddr = 0;
    /** Size of the address window in bytes. */
    std::uint64_t windowSize = 64 * 1024 * 1024;
    /** Bytes per request. */
    unsigned blockSize = 64;
    /** Percentage of requests that are reads, 0..100. */
    unsigned readPct = 100;
    /** Minimum/maximum inter-transaction time; drawn uniformly. */
    Tick minITT = fromNs(6.0);
    Tick maxITT = fromNs(6.0);
    /** Stop after this many requests (0 = run forever). */
    std::uint64_t numRequests = 0;
    /** Cap on in-flight requests (0 = unlimited). */
    unsigned maxOutstanding = 0;
    /** Tick of the first injection. */
    Tick startTick = 0;
    /** Seed for all of this generator's randomness. */
    std::uint64_t seed = 1;
};

class BaseGen : public SimObject
{
  public:
    BaseGen(Simulator &sim, std::string name, const GenConfig &cfg,
            RequestorId id);
    ~BaseGen() override;

    /** The memory-side port; bind to a controller or crossbar. */
    RequestPort &port() { return port_; }

    void startup() override;

    /** All requested packets injected and responded. */
    bool done() const;

    /** Requests currently in flight. */
    unsigned outstanding() const { return outstanding_; }

    RequestorId requestorId() const { return id_; }
    const GenConfig &genConfig() const { return cfg_; }

    /** Generator-side statistics. */
    struct GenStats
    {
        explicit GenStats(BaseGen &gen);

        stats::Scalar sentReads;
        stats::Scalar sentWrites;
        stats::Scalar bytesSent;
        stats::Scalar recvResponses;
        stats::Scalar retries;
        /** End-to-end read latency, injection to response. */
        stats::TickHistogram readLatencyHist;
        stats::Formula avgReadLatencyNs;
        /**
         * End-to-end latency not covered by the controller's span:
         * crossbar traversal, response-queue residency and port
         * retries. Sampled only for responses that carry a valid
         * attribution span.
         */
        stats::TickHistogram xbarLatencyHist;
    };

    const GenStats &genStats() const { return *stats_; }

    /** Mean end-to-end read latency in nanoseconds. */
    double avgReadLatencyNs() const;

    void checkpoint(ckpt::Io &io) override;

    /**
     * Warm-start hook: raise the request budget by @p extra_requests,
     * re-seed the random stream with @p reseed (so the measured phase
     * draws the same stream whether it follows the warmup in-process
     * or after a checkpoint restore), and resume injecting if the
     * generator had gone idle.
     */
    void extendRun(std::uint64_t extra_requests, std::uint64_t reseed);

  protected:
    /** Next request address; implemented by each generator flavour. */
    virtual Addr nextAddr() = 0;

    /** Whether the next request is a read (default: readPct draw). */
    virtual bool nextIsRead();

    Random &rng() { return rng_; }

    /**
     * Fingerprint of the immutable configuration shape (everything
     * except seed and the request budget, which extendRun() mutates),
     * recorded in checkpoints and verified on restore.
     */
    std::uint64_t configHash() const;

  private:
    class GenPort : public RequestPort
    {
      public:
        GenPort(std::string name, BaseGen &gen)
            : RequestPort(std::move(name)), gen_(gen)
        {}

        bool recvTimingResp(Packet *pkt) override
        {
            return gen_.recvTimingResp(pkt);
        }

        void recvReqRetry() override { gen_.recvReqRetry(); }

      private:
        BaseGen &gen_;
    };

    void tryInject();
    bool recvTimingResp(Packet *pkt);
    void recvReqRetry();
    void scheduleNext();
    Tick drawITT();

    GenConfig cfg_;
    RequestorId id_;
    GenPort port_;
    Random rng_;

    Packet *blockedPkt_ = nullptr;
    std::uint64_t sent_ = 0;
    unsigned outstanding_ = 0;
    bool throttled_ = false;

    EventFunctionWrapper injectEvent_;

    std::unique_ptr<GenStats> stats_;
};

} // namespace dramctrl

#endif // DRAMCTRL_TRAFFICGEN_BASE_GEN_H
