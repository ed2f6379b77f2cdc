/**
 * @file
 * Trace support: record a request stream at any point in the memory
 * system, and replay a recorded (or synthesised) trace later.
 *
 * gem5 offers trace-based generators next to the statistical ones
 * (Section III-A); the paper cautions that traces miss the feedback
 * between memory latency and the request stream, which is exactly what
 * the replay-vs-live experiments built on these classes can quantify.
 *
 * Trace text format, one request per line, '#' comments allowed:
 *
 *     <tick> <r|w> <hex addr> <size>
 *
 * The high-throughput binary twin (.dtrc) lives in trace_file.hh; the
 * TraceSource seam below is what lets TracePlayer replay either one —
 * a materialised vector or a streamed multi-gigabyte file — through
 * identical injection logic.
 */

#ifndef DRAMCTRL_TRAFFICGEN_TRACE_H
#define DRAMCTRL_TRAFFICGEN_TRACE_H

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "stats/stats.hh"

namespace dramctrl {

/** One recorded request. */
struct TraceEntry
{
    Tick tick = 0;
    bool isRead = true;
    Addr addr = 0;
    unsigned size = 64;

    bool operator==(const TraceEntry &) const = default;
};

/**
 * Parse a text trace file; fatal() (naming the file and line) on
 * malformed fields, numeric overflow, trailing garbage, and ticks
 * that go backwards.
 */
std::vector<TraceEntry> loadTrace(const std::string &path);

/** Serialise entries to a text trace file. */
void saveTrace(const std::string &path,
               const std::vector<TraceEntry> &entries);

/**
 * Pull-based trace sources, the seam between TracePlayer and where a
 * trace actually lives. peek() exposes the next entry without
 * consuming it; advance() pops it; seek() repositions (used by
 * checkpoint restore).
 */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** @return false when the stream is exhausted. */
    virtual bool peek(TraceEntry &e) = 0;
    virtual void advance() = 0;

    /** Entries consumed so far. */
    virtual std::uint64_t position() const = 0;

    /** Reposition so the next peek() yields entry @p n. */
    virtual void seek(std::uint64_t n) = 0;

    /** Stable id of the underlying stream, for checkpoint checks. */
    virtual std::uint64_t fingerprint() const = 0;
};

/** A materialised trace (text loads, tests, recorded vectors). */
class VectorTraceSource : public TraceSource
{
  public:
    explicit VectorTraceSource(std::vector<TraceEntry> entries)
        : entries_(std::move(entries))
    {}

    bool
    peek(TraceEntry &e) override
    {
        if (pos_ >= entries_.size())
            return false;
        e = entries_[pos_];
        return true;
    }

    void advance() override { ++pos_; }
    std::uint64_t position() const override { return pos_; }
    void seek(std::uint64_t n) override { pos_ = n; }
    std::uint64_t fingerprint() const override
    {
        return entries_.size();
    }

  private:
    std::vector<TraceEntry> entries_;
    std::uint64_t pos_ = 0;
};

/**
 * A transparent interposer that records every request passing through
 * it (time, direction, address, size) while forwarding traffic and flow
 * control unchanged in both directions. By default entries accumulate
 * in an in-memory vector; install a sink to stream them out instead
 * (e.g. straight into a TraceWriter) with O(1) memory.
 */
class TraceRecorder : public SimObject
{
  public:
    TraceRecorder(Simulator &sim, std::string name);

    /** Port facing the requestor (CPU/generator side). */
    ResponsePort &cpuSidePort() { return cpuSide_; }
    /** Port facing the memory. */
    RequestPort &memSidePort() { return memSide_; }

    const std::vector<TraceEntry> &trace() const { return trace_; }
    void clearTrace() { trace_.clear(); }

    /**
     * Stream accepted requests to @p sink instead of buffering them;
     * entries arrive in simulation-tick order.
     */
    void
    setSink(std::function<void(const TraceEntry &)> sink)
    {
        sink_ = std::move(sink);
    }

  private:
    class CpuSide : public ResponsePort
    {
      public:
        CpuSide(std::string name, TraceRecorder &rec)
            : ResponsePort(std::move(name)), rec_(rec)
        {}

        bool
        recvTimingReq(Packet *pkt) override
        {
            return rec_.handleReq(pkt);
        }

        void recvRespRetry() override { rec_.memSide_.sendRespRetry(); }

      private:
        TraceRecorder &rec_;
    };

    class MemSide : public RequestPort
    {
      public:
        MemSide(std::string name, TraceRecorder &rec)
            : RequestPort(std::move(name)), rec_(rec)
        {}

        bool
        recvTimingResp(Packet *pkt) override
        {
            return rec_.cpuSide_.sendTimingResp(pkt);
        }

        void recvReqRetry() override { rec_.cpuSide_.sendReqRetry(); }

      private:
        TraceRecorder &rec_;
    };

    bool handleReq(Packet *pkt);

    CpuSide cpuSide_;
    MemSide memSide_;
    std::vector<TraceEntry> trace_;
    std::function<void(const TraceEntry &)> sink_;
};

/** How a TracePlayer should replay its source. */
struct TracePlayerConfig
{
    /** Where the entries come from; shared so harness plumbing and
     *  the player can both hold it without ownership gymnastics. */
    std::shared_ptr<TraceSource> source;
    /** Stretch (>1) or compress (<1) recorded inter-request gaps. */
    double timeScale = 1.0;
    /**
     * When a request is refused, delay every subsequent entry by the
     * stall (true: the trace is an intent schedule, replay like a
     * blocked requestor). Captured traces already carry the original
     * backpressure in their timestamps, so faithful replay sets this
     * false and retries without shifting the schedule.
     */
    bool slipOnStall = true;
};

/**
 * Replays a trace through a RequestPort at the recorded ticks (scaled
 * by timeScale). A refused request stalls the replay; subsequent
 * entries slip accordingly, like a blocked requestor would. The
 * player pulls entries one at a time, so a streaming source replays
 * in O(1) memory.
 */
class TracePlayer : public SimObject
{
  public:
    TracePlayer(Simulator &sim, std::string name,
                const TracePlayerConfig &cfg, RequestorId id);
    TracePlayer(Simulator &sim, std::string name,
                std::vector<TraceEntry> trace, RequestorId id,
                double time_scale = 1.0);
    ~TracePlayer() override;

    RequestPort &port() { return port_; }

    void startup() override;

    /** All entries injected and responded. */
    bool done() const;

    std::uint64_t injected() const { return next_; }
    std::uint64_t responses() const { return responses_; }
    std::uint64_t readResponses() const { return readResponses_; }
    /** End-to-end latency summed over the read responses, ticks. */
    Tick totReadLatency() const { return totReadLatency_; }

    /** Mean end-to-end read latency in nanoseconds. */
    double avgReadLatencyNs() const;

    void checkpoint(ckpt::Io &io) override;

  private:
    class PlayerPort : public RequestPort
    {
      public:
        PlayerPort(std::string name, TracePlayer &player)
            : RequestPort(std::move(name)), player_(player)
        {}

        bool
        recvTimingResp(Packet *pkt) override
        {
            return player_.recvTimingResp(pkt);
        }

        void recvReqRetry() override { player_.recvReqRetry(); }

      private:
        TracePlayer &player_;
    };

    /** Ensure cur_ holds the next undispatched entry. */
    bool fetch();
    Tick scaledTick(const TraceEntry &e) const;
    void tryInject();
    bool recvTimingResp(Packet *pkt);
    void recvReqRetry();
    void scheduleNext();

    std::shared_ptr<TraceSource> source_;
    RequestorId id_;
    double timeScale_;
    bool slipOnStall_;
    PlayerPort port_;

    TraceEntry cur_{};
    bool curValid_ = false;
    bool exhausted_ = false;

    std::uint64_t next_ = 0; ///< entries successfully dispatched
    std::uint64_t responses_ = 0;
    std::uint64_t outstandingReads_ = 0;
    Packet *blockedPkt_ = nullptr;
    /**
     * Intended (scaled + slipped) tick of the blocked entry; moves to
     * the retry tick once the stall up to it is charged to slip_.
     */
    Tick blockedIntent_ = 0;
    /** Accumulated slip when the memory system pushed back. */
    Tick slip_ = 0;

    Tick totReadLatency_ = 0;
    std::uint64_t readResponses_ = 0;

    EventFunctionWrapper injectEvent_;
};

} // namespace dramctrl

#endif // DRAMCTRL_TRAFFICGEN_TRACE_H
