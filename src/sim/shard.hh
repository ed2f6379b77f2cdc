/**
 * @file
 * Conservative parallel execution of a sharded simulation.
 *
 * A sharded Simulator partitions its model objects over several event
 * queues ("shards"); each shard runs its own slice of the agenda. The
 * engine advances all shards in lock-stepped, half-open windows:
 *
 *   [t_next, min(until + 1, t_next + lookahead))
 *
 * where the lookahead is the minimum latency of any cross-shard
 * interaction and t_next is a lower bound on the earliest event over
 * all shards. Every cross-shard effect travels as a message posted
 * during a window and delivered after the barrier that ends it.
 * Because every message carries latency >= lookahead, a message sent
 * inside a window is due after that window's last tick, so delivering
 * it after the barrier is always causally safe (the classic
 * conservative-synchronisation argument, CMB-style): its target has
 * not yet run the tick it is due at.
 *
 * A team of executors runs the windows; executor e runs the shards s
 * with s % width == e. Each window has one barrier. An executor runs
 * its shards to the window end and publishes a bound on the next
 * window's start: the earliest of its shards' next events and of the
 * due ticks of the messages they posted. It crosses the barrier, takes
 * the minimum of all bounds (every executor gets the same one),
 * delivers the messages bound for its own shards and runs the next
 * window at once. The bound may be early (a delivery need not schedule
 * anything), which costs an empty window, but it is never late.
 *
 * Messages go into outboxes keyed by (window parity, sender executor,
 * receiver executor). Each has one writer and one reader, which
 * empties it: the parity lets a sender run the next window while the
 * receivers still read this one's, and the barrier keeps it from
 * getting further ahead. An executor delivers in (due tick, sender
 * shard, send order) order. A delivery touches only its target's shard
 * and event sequence numbers are per queue, so this per-target order
 * is all that the results depend on: it is the order a single global
 * sort by (tick, target, sender, send order) would give each target.
 *
 * The upshot: the sequence of windows, the events run inside each
 * shard, and the delivery order into every shard are all pure
 * functions of the model state — never of the worker-thread count or
 * of host timing. Running with 1, 2 or 8 threads produces
 * byte-identical results; a single-threaded run of the sharded engine
 * IS the reference ordering, not an approximation of it.
 *
 * The same holds for run() horizons: a sharded run advanced in other
 * steps, or stopped, checkpointed and restored, ends with the same
 * results. A horizon moves the barriers, so nothing may depend on the
 * barrier a message meets: a message always reaches its target before
 * the tick it is due at, and the wake a delivery schedules is an
 * arrival event (Event::kArrivalPriority), whose order among the
 * tick's other arrivals is fixed when it is built.
 */

#ifndef DRAMCTRL_SIM_SHARD_H
#define DRAMCTRL_SIM_SHARD_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/types.hh"

namespace dramctrl {

class Packet;
class Simulator;

namespace exec {
class ThreadPool;
} // namespace exec

/**
 * Receiving end of a link between shards. For a message posted through
 * ShardedEngine::post(), deliver() runs after the barrier that ends the
 * window the message was posted in, on the executor that runs the
 * target shard, with that shard at a tick before @p when. The other
 * executors deliver to their own shards, or already run their next
 * window, at the same time, so deliver() must touch only state on its
 * target shard and must not post. It typically enqueues the payload
 * and (re)schedules a wake-up event on its owner's shard queue at
 * @p when; it must schedule nothing earlier. A sender on the target's
 * own shard does not post: it calls deliver() itself when it sends (the
 * crossbar does), so ShardedEngine::numMessages() counts only messages
 * that cross shards.
 */
class ShardMailbox
{
  public:
    virtual ~ShardMailbox() = default;

    /**
     * Apply one message. @p pkt may be null for pure control messages
     * (e.g. flow-control credits); @p arg is an opaque small payload.
     */
    virtual void deliver(Tick when, Packet *pkt, std::uint64_t arg) = 0;
};

/**
 * Windowed conservative scheduler over a Simulator's shard queues.
 * Owned by the Simulator once configureShards() has been called;
 * model code only ever touches post().
 */
class ShardedEngine
{
  public:
    /** @p lookahead must be > 0: the minimum cross-shard latency. */
    ShardedEngine(Simulator &sim, Tick lookahead);

    /** Stops and joins the worker team. */
    ~ShardedEngine();

    ShardedEngine(const ShardedEngine &) = delete;
    ShardedEngine &operator=(const ShardedEngine &) = delete;

    Tick lookahead() const { return lookahead_; }

    /**
     * Set the execution width (worker threads incl. the caller).
     * Clamped to [1, numShards] at first run; fixed once the worker
     * team has started. Width NEVER affects results, only wall-clock.
     */
    void setThreads(unsigned threads);

    unsigned threads() const { return requestedThreads_; }

    /**
     * Post a cross-shard message from @p from (the currently executing
     * shard) for delivery to @p box at @p when. Must satisfy
     * when >= senderNow + lookahead; the engine asserts it. Wait-free:
     * each executor appends to its own outboxes.
     */
    void post(unsigned from, unsigned to, Tick when, ShardMailbox &box,
              Packet *pkt, std::uint64_t arg);

    /**
     * Advance every shard to @p until. A finite horizon ends at
     * exactly @p until. kMaxTick runs to global exhaustion and ends at
     * the tick of the last event serviced on any shard, as a single
     * queue would (or where the run started, if no event ran). All
     * shards are left at that common tick with no message in flight.
     *
     * @return the common final tick.
     */
    Tick run(Tick until);

    /** Synchronisation windows executed since construction. */
    std::uint64_t numWindows() const { return windows_; }

    /** Cross-shard messages delivered since construction. */
    std::uint64_t numMessages() const { return messages_; }

  private:
    struct Msg
    {
        Tick when;
        std::uint32_t from;
        std::uint32_t to;
        /** Send order: a count of the sending executor's posts. */
        std::uint64_t seq;
        ShardMailbox *box;
        Packet *pkt;
        std::uint64_t arg;
    };

    /** The outbox of one (parity, sender, receiver), on its own line. */
    struct alignas(64) Outbox
    {
        std::vector<Msg> msgs;
    };

    /** What an executor publishes at the barrier, on its own line. */
    struct alignas(64) Slot
    {
        /** Windows the executor has finished. */
        std::atomic<std::uint64_t> done{0};
        /** Per window parity: its bound on the next window's start. */
        Tick bound[2] = {kMaxTick, kMaxTick};
    };

    /** One executor's own state, a cache line apart from the others. */
    struct alignas(64) Executor
    {
        /** Windows run; the low bit is the parity its shards post in. */
        std::uint64_t windows = 0;
        std::uint64_t sent = 0;
        /** Earliest due tick its shards posted in this window. */
        Tick minDue = kMaxTick;
        std::uint64_t delivered = 0;
        std::vector<Msg> inbound;
    };

    Outbox &outbox(std::uint64_t parity, unsigned from, unsigned to)
    {
        return outboxes_[((parity & 1) * width_ + from) * width_ + to];
    }

    /** Executor @p id's share of run(): windows, barriers, delivery. */
    void runWindows(unsigned id);

    /** Deliver @p in, sorted, and empty it. */
    void deliverSorted(std::vector<Msg> &in);

    /** Advance every shard's clock to @p until (no events due). */
    void advanceAll(Tick until);

    /** Spawn the worker team on the first parallel run. */
    void ensureWorkers();

    /** Long-running loop each pool worker executes. */
    void workerBody(unsigned id);

    Simulator &sim_;
    const Tick lookahead_;

    std::vector<Outbox> outboxes_;
    std::vector<Slot> slots_;
    std::vector<Executor> executors_;

    std::uint64_t windows_ = 0;
    std::uint64_t messages_ = 0;

    unsigned requestedThreads_ = 1;
    /** Executors incl. the coordinator; fixed once workers started. */
    unsigned width_ = 1;
    std::unique_ptr<exec::ThreadPool> pool_;
    bool workersStarted_ = false;

    /** Run state: a new run publishes these to the workers. */
    Tick startTick_ = 0;
    Tick until_ = 0;
    std::atomic<std::uint64_t> runs_{0};
    /** Workers still in the run; the coordinator waits for zero. */
    std::atomic<unsigned> pending_{0};
    std::atomic<bool> stop_{false};
    std::atomic<unsigned> parked_{0};
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_SHARD_H
