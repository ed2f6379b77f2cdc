#include "sim/shard.hh"

#include <algorithm>
#include <thread>

#include "exec/thread_pool.hh"
#include "sim/eventq.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace dramctrl {

ShardedEngine::ShardedEngine(Simulator &sim, Tick lookahead)
    : sim_(sim), lookahead_(lookahead)
{
    if (lookahead_ == 0)
        fatal("sharded engine needs a non-zero lookahead");
    outbox_.resize(sim_.numShards());
}

ShardedEngine::~ShardedEngine()
{
    if (workersStarted_) {
        stop_.store(true, std::memory_order_release);
        epoch_.fetch_add(1, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(wakeMutex_);
            wakeCv_.notify_all();
        }
        pool_.reset(); // drains and joins
    }
    // Messages can only be in flight if a run was abandoned mid-window,
    // which the engine never does; a populated outbox here would mean
    // leaked packets.
    for (auto &ob : outbox_)
        DC_ASSERT(ob.empty(), "engine destroyed with undelivered messages");
}

void
ShardedEngine::setThreads(unsigned threads)
{
    if (threads == 0)
        threads = exec::ThreadPool::hardwareThreads();
    if (workersStarted_ && threads != requestedThreads_)
        fatal("cannot change --sim-threads after the first run");
    requestedThreads_ = threads;
}

void
ShardedEngine::post(unsigned from, unsigned to, Tick when,
                    ShardMailbox &box, Packet *pkt, std::uint64_t arg)
{
    DC_ASSERT(from < outbox_.size() && to < outbox_.size(),
              "cross-shard post between invalid shards %u -> %u", from,
              to);
    DC_ASSERT(when >= sim_.shardQueue(from).curTick() + lookahead_,
              "cross-shard message due at %llu violates the lookahead "
              "(sender now %llu + %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(
                  sim_.shardQueue(from).curTick()),
              static_cast<unsigned long long>(lookahead_));
    outbox_[from].push_back(Msg{when, to, &box, pkt, arg});
}

void
ShardedEngine::advanceAll(Tick until)
{
    const unsigned n = sim_.numShards();
    for (unsigned s = 0; s < n; ++s) {
        // No shard has an event due at or before `until` here, so this
        // only moves the clocks forward to the common horizon.
        sim_.shardQueue(s).simulate(until);
    }
}

void
ShardedEngine::ensureWorkers()
{
    if (workersStarted_)
        return;
    workersStarted_ = true;
    pool_ = std::make_unique<exec::ThreadPool>(width_ - 1);
    for (unsigned id = 1; id < width_; ++id)
        pool_->post([this, id] { workerBody(id); });
}

void
ShardedEngine::workerBody(unsigned id)
{
    std::uint64_t seen = 0;
    for (;;) {
        std::uint64_t e;
        unsigned spins = 0;
        while ((e = epoch_.load(std::memory_order_acquire)) == seen &&
               !stop_.load(std::memory_order_acquire)) {
            // Spin briefly (windows are short), then yield, then park:
            // oversubscribed hosts must not burn a core per worker.
            if (++spins < 1024) {
                // busy wait
            } else if (spins < 16384) {
                std::this_thread::yield();
            } else {
                std::unique_lock<std::mutex> lock(wakeMutex_);
                parked_.fetch_add(1, std::memory_order_relaxed);
                wakeCv_.wait(lock, [&] {
                    return epoch_.load(std::memory_order_acquire) !=
                               seen ||
                           stop_.load(std::memory_order_acquire);
                });
                parked_.fetch_sub(1, std::memory_order_relaxed);
            }
        }
        if (stop_.load(std::memory_order_acquire))
            return;
        seen = e;
        executeEpoch(id);
        pending_.fetch_sub(1, std::memory_order_release);
    }
}

void
ShardedEngine::executeEpoch(unsigned id)
{
    const unsigned n = sim_.numShards();
    if (runPhase_) {
        for (unsigned s = id; s < n; s += width_) {
            // Every executor finished reading this outbox before the
            // epoch began, so the sender can reuse it.
            outbox_[s].clear();
            // Service the window's events but leave the clock at the
            // last of them (not at the window end): a run to
            // exhaustion then ends where the last event ran.
            EventQueue &q = sim_.shardQueue(s);
            while (q.nextTick() <= windowEnd_)
                q.serviceOne();
        }
        // Delivery reads every outbox: wait until all shards have
        // finished posting. The release half publishes this
        // executor's outboxes, the acquire loads collect the others'.
        running_.fetch_sub(1, std::memory_order_acq_rel);
        unsigned spins = 0;
        while (running_.load(std::memory_order_acquire) != 0) {
            if (++spins >= 64)
                std::this_thread::yield();
        }
    }
    deliverInbound(id);

    Tick next = kMaxTick;
    for (unsigned s = id; s < n; s += width_)
        next = std::min(next, sim_.shardQueue(s).nextTick());
    executors_[id].nextTick = next;
}

void
ShardedEngine::deliverInbound(unsigned id)
{
    const unsigned n = sim_.numShards();
    std::vector<MsgRef> &inbound = executors_[id].inbound;
    inbound.clear();
    for (std::uint32_t from = 0; from < n; ++from) {
        const std::vector<Msg> &ob = outbox_[from];
        for (std::uint32_t pos = 0; pos < ob.size(); ++pos)
            if (ob[pos].to % width_ == id)
                inbound.push_back(MsgRef{ob[pos].when, from, pos});
    }

    // (when, from, send order) is a total order, so the result is a
    // pure function of the model state. Restricted to one target it is
    // that target's delivery order at every width, and a delivery
    // touches only its target's shard, so the interleaving across this
    // executor's targets does not matter.
    std::sort(inbound.begin(), inbound.end(),
              [](const MsgRef &a, const MsgRef &b) {
                  if (a.when != b.when)
                      return a.when < b.when;
                  if (a.from != b.from)
                      return a.from < b.from;
                  return a.pos < b.pos;
              });

    for (const MsgRef &r : inbound) {
        const Msg &m = outbox_[r.from][r.pos];
        DC_ASSERT(m.when >= sim_.shardQueue(m.to).curTick(),
                  "message due at %llu delivered past the barrier %llu",
                  static_cast<unsigned long long>(m.when),
                  static_cast<unsigned long long>(
                      sim_.shardQueue(m.to).curTick()));
        m.box->deliver(m.when, m.pkt, m.arg);
    }
    executors_[id].delivered = inbound.size();
}

Tick
ShardedEngine::runEpoch(bool run_phase, Tick window_end)
{
    if (run_phase)
        ++windows_;
    runPhase_ = run_phase;
    windowEnd_ = window_end;
    running_.store(width_, std::memory_order_relaxed);
    if (width_ > 1) {
        ensureWorkers();
        pending_.store(width_ - 1, std::memory_order_relaxed);
        epoch_.fetch_add(1, std::memory_order_release);
        if (parked_.load(std::memory_order_acquire) > 0) {
            std::lock_guard<std::mutex> lock(wakeMutex_);
            wakeCv_.notify_all();
        }
    }

    // The coordinator is executor 0: shard 0 (and every width-th shard)
    // always runs here, so objects on shard 0 keep main-thread
    // affinity.
    executeEpoch(0);

    unsigned spins = 0;
    while (pending_.load(std::memory_order_acquire) != 0) {
        if (++spins >= 64)
            std::this_thread::yield();
    }

    Tick t_next = kMaxTick;
    for (const Executor &ex : executors_) {
        t_next = std::min(t_next, ex.nextTick);
        messages_ += ex.delivered;
    }
    return t_next;
}

Tick
ShardedEngine::run(Tick until)
{
    if (width_ == 1 && !workersStarted_) {
        width_ = std::min(requestedThreads_, sim_.numShards());
        executors_.resize(width_);
    }

    // Messages posted outside a window (model setup before the first
    // run, or between runs) have not been through a barrier yet: an
    // epoch without a run phase delivers them, so their wake-ups show
    // up in the shard agendas below.
    Tick t_next = runEpoch(false, 0);
    for (;;) {
        // Invariant at the top: all shards sit at a common barrier tick,
        // every posted message has been delivered, and t_next is the
        // earliest event over all shards.
        if (t_next == kMaxTick) {
            if (until == kMaxTick) {
                // Exhausted: end where the last event ran, on any
                // shard.
                until = 0;
                for (unsigned s = 0; s < sim_.numShards(); ++s)
                    until = std::max(until, sim_.shardQueue(s).curTick());
            }
            advanceAll(until);
            break;
        }
        if (until != kMaxTick && t_next > until) {
            advanceAll(until);
            break;
        }

        // The window is [t_next, t_next + lookahead): a message posted
        // in it is due at t_next + lookahead or later, a tick no shard
        // has run yet when the message is delivered.
        DC_ASSERT(t_next < kMaxTick - lookahead_,
                  "event tick too close to the end of time");
        Tick window_end = t_next + lookahead_ - 1;
        if (window_end > until)
            window_end = until;

        t_next = runEpoch(true, window_end);
    }

    // No executor reads the outboxes again before the next epoch.
    for (auto &ob : outbox_)
        ob.clear();
    return sim_.shardQueue(0).curTick();
}

} // namespace dramctrl
