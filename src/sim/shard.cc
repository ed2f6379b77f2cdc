#include "sim/shard.hh"

#include <algorithm>
#include <thread>

#include "exec/thread_pool.hh"
#include "sim/eventq.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace dramctrl {

ShardedEngine::ShardedEngine(Simulator &sim, Tick lookahead)
    : sim_(sim), lookahead_(lookahead), outboxes_(2), slots_(1),
      executors_(1)
{
    if (lookahead_ == 0)
        fatal("sharded engine needs a non-zero lookahead");
}

ShardedEngine::~ShardedEngine()
{
    if (workersStarted_) {
        stop_.store(true, std::memory_order_release);
        runs_.fetch_add(1, std::memory_order_release);
        {
            std::lock_guard<std::mutex> lock(wakeMutex_);
            wakeCv_.notify_all();
        }
        pool_.reset(); // drains and joins
    }
    // Messages posted since the last run would mean leaked packets.
    for (const Outbox &ob : outboxes_)
        DC_ASSERT(ob.msgs.empty(),
                  "engine destroyed with undelivered messages");
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
    DC_ASSERT(from < sim_.numShards() && to < sim_.numShards(),
              "cross-shard post between invalid shards %u -> %u", from,
              to);
    DC_ASSERT(when >= sim_.shardQueue(from).curTick() + lookahead_,
              "cross-shard message due at %llu violates the lookahead "
              "(sender now %llu + %llu)",
              static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(
                  sim_.shardQueue(from).curTick()),
              static_cast<unsigned long long>(lookahead_));
    // Only the sender's executor (or, between runs, the caller) gets here.
    Executor &ex = executors_[from % width_];
    ex.minDue = std::min(ex.minDue, when);
    outbox(ex.windows, from % width_, to % width_)
        .msgs.push_back(Msg{when, from, to, ex.sent++, &box, pkt, arg});
}

void
ShardedEngine::deliverSorted(std::vector<Msg> &in)
{
    // (when, from, seq) is a total order, and seq is the send order of
    // one sender shard, so the result is a pure function of the model
    // state. Restricted to one target it is that target's delivery
    // order at every width, and a delivery touches only its target's
    // shard, so the interleaving across targets does not matter.
    std::sort(in.begin(), in.end(), [](const Msg &a, const Msg &b) {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.from != b.from)
            return a.from < b.from;
        return a.seq < b.seq;
    });
    for (const Msg &m : in) {
        DC_ASSERT(m.when >= sim_.shardQueue(m.to).curTick(),
                  "message due at %llu delivered past the barrier %llu",
                  static_cast<unsigned long long>(m.when),
                  static_cast<unsigned long long>(
                      sim_.shardQueue(m.to).curTick()));
        m.box->deliver(m.when, m.pkt, m.arg);
    }
    in.clear();
}

void
ShardedEngine::advanceAll(Tick until)
{
    for (unsigned s = 0; s < sim_.numShards(); ++s) {
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
        std::uint64_t r;
        unsigned spins = 0;
        while ((r = runs_.load(std::memory_order_acquire)) == seen &&
               !stop_.load(std::memory_order_acquire)) {
            // Spin briefly (runs often follow each other closely), then
            // yield, then park: oversubscribed hosts must not burn a
            // core per worker.
            if (++spins < 1024) {
                // busy wait
            } else if (spins < 16384) {
                std::this_thread::yield();
            } else {
                std::unique_lock<std::mutex> lock(wakeMutex_);
                // Sequentially consistent, as in run(): either this
                // worker sees the new run or run() sees it parked.
                parked_.fetch_add(1);
                wakeCv_.wait(lock, [&] {
                    return runs_.load() != seen ||
                           stop_.load(std::memory_order_acquire);
                });
                parked_.fetch_sub(1, std::memory_order_relaxed);
            }
        }
        if (stop_.load(std::memory_order_acquire))
            return;
        seen = r;
        runWindows(id);
        pending_.fetch_sub(1, std::memory_order_release);
    }
}

void
ShardedEngine::runWindows(unsigned id)
{
    const unsigned n = sim_.numShards();
    Executor &ex = executors_[id];
    Tick t_next = startTick_;
    for (;;) {
        // The window is [t_next, t_next + lookahead): a message posted
        // in it is due at t_next + lookahead or later, a tick no shard
        // has run yet when the message is delivered.
        DC_ASSERT(t_next < kMaxTick - lookahead_,
                  "event tick too close to the end of time");
        const Tick window_end = std::min(t_next + lookahead_ - 1, until_);
        ex.minDue = kMaxTick;
        Tick bound = kMaxTick;
        for (unsigned s = id; s < n; s += width_) {
            // Service the window's events but leave the clock at the
            // last of them (not at the window end): a run to
            // exhaustion then ends where the last event ran.
            EventQueue &q = sim_.shardQueue(s);
            DC_ASSERT(q.nextTick() >= t_next,
                      "event at %llu before the window start %llu",
                      static_cast<unsigned long long>(q.nextTick()),
                      static_cast<unsigned long long>(t_next));
            while (q.nextTick() <= window_end)
                q.serviceOne();
            bound = std::min(bound, q.nextTick());
        }

        // The one barrier: publish this executor's bound, then wait
        // for every executor's. The release and acquire steps also
        // hand this window's outboxes to their readers, and a writer
        // reuses an outbox (same parity) only after passing the next
        // barrier, which every reader reaches after emptying it.
        const std::uint64_t parity = ex.windows & 1;
        slots_[id].bound[parity] = std::min(bound, ex.minDue);
        slots_[id].done.store(++ex.windows, std::memory_order_release);
        t_next = kMaxTick;
        for (const Slot &slot : slots_) {
            unsigned spins = 0;
            while (slot.done.load(std::memory_order_acquire) < ex.windows)
                if (++spins >= 64)
                    std::this_thread::yield();
            t_next = std::min(t_next, slot.bound[parity]);
        }

        for (unsigned from = 0; from < width_; ++from) {
            std::vector<Msg> &ob = outbox(parity, from, id).msgs;
            ex.inbound.insert(ex.inbound.end(), ob.begin(), ob.end());
            ob.clear();
        }
        ex.delivered += ex.inbound.size();
        deliverSorted(ex.inbound);

        if (t_next == kMaxTick || t_next > until_)
            return;
    }
}

Tick
ShardedEngine::run(Tick until)
{
    // Messages posted outside a run (model setup before the first run,
    // or between runs) have not been through a barrier yet: deliver
    // them here, so their wake-ups show up in the shard agendas below.
    std::vector<Msg> &in = executors_[0].inbound;
    for (Outbox &ob : outboxes_) {
        in.insert(in.end(), ob.msgs.begin(), ob.msgs.end());
        ob.msgs.clear();
    }
    messages_ += in.size();
    deliverSorted(in);

    const unsigned width = std::min(requestedThreads_, sim_.numShards());
    if (!workersStarted_ && width != width_) {
        width_ = width;
        outboxes_ = std::vector<Outbox>(2 * width_ * width_);
        slots_ = std::vector<Slot>(width_);
        executors_ = std::vector<Executor>(width_);
    }

    Tick t_next = kMaxTick;
    for (unsigned s = 0; s < sim_.numShards(); ++s)
        t_next = std::min(t_next, sim_.shardQueue(s).nextTick());
    if (t_next != kMaxTick && t_next <= until) {
        startTick_ = t_next;
        until_ = until;
        const std::uint64_t windows0 = executors_[0].windows;
        if (width_ > 1) {
            ensureWorkers();
            pending_.store(width_ - 1, std::memory_order_relaxed);
            runs_.fetch_add(1);
            if (parked_.load() > 0) {
                std::lock_guard<std::mutex> lock(wakeMutex_);
                wakeCv_.notify_all();
            }
        }
        // The coordinator is executor 0: shard 0 (and every width-th
        // shard) always runs here, so objects on shard 0 keep
        // main-thread affinity.
        runWindows(0);
        unsigned spins = 0;
        while (pending_.load(std::memory_order_acquire) != 0)
            if (++spins >= 64)
                std::this_thread::yield();
        windows_ += executors_[0].windows - windows0;
        for (Executor &ex : executors_) {
            messages_ += ex.delivered;
            ex.delivered = 0;
        }
    }

    if (until == kMaxTick) {
        // Exhausted: end where the last event ran, on any shard.
        until = 0;
        for (unsigned s = 0; s < sim_.numShards(); ++s)
            until = std::max(until, sim_.shardQueue(s).curTick());
    }
    advanceAll(until);
    return sim_.shardQueue(0).curTick();
}

} // namespace dramctrl
