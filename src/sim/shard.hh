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
 * where t_next is the earliest event over all shards and the lookahead
 * is the minimum latency of any cross-shard interaction. Every
 * cross-shard effect travels as a message posted during window
 * execution and applied only at the barrier between windows. Because
 * every message carries latency >= lookahead, a message sent inside a
 * window is due after that window's last tick, so applying it at the
 * barrier is always causally safe (the classic conservative-
 * synchronisation argument, CMB-style): its target has not yet run the
 * tick it is due at.
 *
 * Each window has two phases on a team of executors; executor e runs
 * the shards s with s % width == e. In the run phase every executor
 * simulates its shards to the window end. Once all have finished,
 * each executor delivers the messages bound for its own shards, in
 * (delivery tick, sender shard, per-sender send order) order, and
 * reports its shards' earliest next event. A delivery touches only its
 * target's shard and event sequence numbers are per queue, so this
 * per-target order is all that the results depend on: it is the
 * order a single global sort by (tick, target, sender, send order)
 * would give each target.
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
 * Receiving end of a cross-shard link. deliver() is invoked at a
 * barrier, on the executor that runs the target shard, with all
 * shards quiescent at a common tick <= @p when; the implementation
 * typically enqueues the payload and (re)schedules a wake-up event on
 * its owner's shard queue at @p when. Other executors deliver to
 * their own shards at the same time, so deliver() must touch only
 * state on its target shard, and must not post.
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
     * each shard appends to its own outbox.
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
        std::uint32_t to;
        ShardMailbox *box;
        Packet *pkt;
        std::uint64_t arg;
    };

    /** Merge key of one message: its tick and place in the outboxes. */
    struct MsgRef
    {
        Tick when;
        std::uint32_t from;
        /** Index in outbox_[from], i.e. the sender's send order. */
        std::uint32_t pos;
    };

    /**
     * One executor's merge scratch and epoch results, a cache line
     * apart: executors write their own entries concurrently.
     */
    struct alignas(64) Executor
    {
        std::vector<MsgRef> inbound;
        /** Earliest next event over this executor's shards. */
        Tick nextTick = kMaxTick;
        /** Messages this executor delivered in the last epoch. */
        std::uint64_t delivered = 0;
    };

    /**
     * One epoch on every executor: the run phase to @p window_end when
     * @p run_phase, then delivery.
     *
     * @return the earliest next event over all shards.
     */
    Tick runEpoch(bool run_phase, Tick window_end);

    /** Executor @p id's share of the current epoch. */
    void executeEpoch(unsigned id);

    /** Deliver the posted messages bound for executor @p id's shards. */
    void deliverInbound(unsigned id);

    /** Advance every shard's clock to @p until (no events due). */
    void advanceAll(Tick until);

    /** Spawn the worker team on first parallel epoch. */
    void ensureWorkers();

    /** Long-running loop each pool worker executes. */
    void workerBody(unsigned id);

    Simulator &sim_;
    const Tick lookahead_;

    /**
     * Per-sender-shard outboxes; only shard i's executor writes
     * outbox_[i]. Kept after delivery until that executor's next run
     * phase (or the end of run()), since every executor reads them.
     */
    std::vector<std::vector<Msg>> outbox_;
    std::vector<Executor> executors_;

    std::uint64_t windows_ = 0;
    std::uint64_t messages_ = 0;

    unsigned requestedThreads_ = 1;
    /** Executors incl. the coordinator; fixed once workers started. */
    unsigned width_ = 1;
    std::unique_ptr<exec::ThreadPool> pool_;
    bool workersStarted_ = false;

    /** Epoch state: a new epoch publishes these to the workers. */
    bool runPhase_ = false;
    Tick windowEnd_ = 0;
    std::atomic<std::uint64_t> epoch_{0};
    /** Executors still in the run phase; delivery waits for zero. */
    std::atomic<unsigned> running_{0};
    /** Workers still in the epoch; the coordinator waits for zero. */
    std::atomic<unsigned> pending_{0};
    std::atomic<bool> stop_{false};
    std::atomic<unsigned> parked_{0};
    std::mutex wakeMutex_;
    std::condition_variable wakeCv_;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_SHARD_H
