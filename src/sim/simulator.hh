/**
 * @file
 * Top-level simulation container: event queue, object registry, root
 * statistics group.
 */

#ifndef DRAMCTRL_SIM_SIMULATOR_H
#define DRAMCTRL_SIM_SIMULATOR_H

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "sim/eventq.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace dramctrl {

class ShardedEngine;
class SimObject;

namespace obs {
class MetricsRegistry;
} // namespace obs

/**
 * Owns simulated time and the roots of the stats tree. Model objects are
 * constructed by the user (typically through a harness system builder,
 * such as harness::SingleChannelSystem or harness::MultiChannelSystem)
 * and register themselves here; the simulator drives startup and time.
 *
 * A simulator is single-queue by default. configureShards() turns it
 * into a sharded simulator: extra event queues are created and every
 * SimObject constructed afterwards binds to the queue selected by the
 * surrounding ShardScope. run() then drives all shards through the
 * conservative windowed engine (sim/shard.hh); results are identical
 * at any worker-thread count.
 */
class Simulator
{
  public:
    explicit Simulator(std::string name = "system");
    ~Simulator();

    Simulator(const Simulator &) = delete;
    Simulator &operator=(const Simulator &) = delete;

    EventQueue &eventq() { return eventq_; }
    const EventQueue &eventq() const { return eventq_; }

    Tick curTick() const { return eventq_.curTick(); }

    /**
     * Partition the simulation into @p count shards synchronised with
     * @p lookahead (the minimum cross-shard latency; must be > 0 for
     * count > 1). Call once, before constructing the objects that
     * should live on shards; objects constructed earlier stay on
     * shard 0. count == 1 leaves the simulator in plain single-queue
     * mode.
     */
    void configureShards(unsigned count, Tick lookahead);

    /** Shard count; 1 for an unsharded simulator. */
    unsigned numShards() const
    {
        return 1 + static_cast<unsigned>(extraShards_.size());
    }

    bool sharded() const { return engine_ != nullptr; }

    /** Queue of shard @p idx; shard 0 is eventq(). */
    EventQueue &shardQueue(unsigned idx);

    /** The windowed engine; only valid once sharded(). */
    ShardedEngine &shardEngine();

    /**
     * Worker threads for sharded runs (forwarded to the engine;
     * 0 = one per hardware thread). Purely a wall-clock knob: results
     * are byte-identical at every width.
     */
    void setSimThreads(unsigned threads);

    /** Construction-time shard affinity for new SimObjects. */
    unsigned currentShard() const { return currentShard_; }

    /**
     * RAII selector of the shard new SimObjects bind to. System
     * builders wrap each per-channel slice in a scope:
     *
     *   Simulator::ShardScope scope(sim, ch);
     *   ctrls.push_back(std::make_unique<DRAMCtrl>(sim, ...));
     */
    class ShardScope
    {
      public:
        ShardScope(Simulator &sim, unsigned shard);
        ~ShardScope() { sim_.currentShard_ = prev_; }

        ShardScope(const ShardScope &) = delete;
        ShardScope &operator=(const ShardScope &) = delete;

      private:
        Simulator &sim_;
        unsigned prev_;
    };

    stats::Group &rootStats() { return rootStats_; }

    /** Called by the SimObject constructor. */
    void registerObject(SimObject *obj);

    const std::vector<SimObject *> &objects() const { return objects_; }

    /**
     * Run the simulation until @p until (calling each object's startup()
     * exactly once, before the first event).
     *
     * @return the final simulated tick.
     */
    Tick run(Tick until = kMaxTick);

    /** Dump the full statistics tree, gem5 stats.txt style. */
    void dumpStats(std::ostream &os) const { rootStats_.dump(os); }

    /** Dump the full statistics tree as JSON. */
    void dumpStatsJson(std::ostream &os) const
    {
        rootStats_.dumpJson(os);
    }

    /** Reset all statistics, e.g. after a warm-up phase. */
    void resetStats() { rootStats_.resetAll(); }

    /**
     * The simulator's metrics registry (see obs/metrics.hh). The root
     * statistics tree is pre-attached, so every registered statistic
     * is visible through the introspection endpoint without extra
     * plumbing; tools add their own counters and gauges to the same
     * registry.
     */
    obs::MetricsRegistry &metrics() { return *metrics_; }

    /** True once every object's startup() has run. */
    bool startupDone() const { return startupDone_; }

    /**
     * Suppress startup(): a checkpoint restore reconstructs the state
     * startup() would have created, so running it again would
     * double-schedule the initial events.
     */
    void markStartupDone() { startupDone_ = true; }

  private:
    EventQueue eventq_;
    stats::Group rootStats_;
    std::unique_ptr<obs::MetricsRegistry> metrics_;
    std::vector<SimObject *> objects_;
    bool startupDone_ = false;

    /** Queues of shards 1..N-1 (shard 0 is eventq_). */
    std::vector<std::unique_ptr<EventQueue>> extraShards_;
    std::unique_ptr<ShardedEngine> engine_;
    unsigned currentShard_ = 0;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_SIMULATOR_H
