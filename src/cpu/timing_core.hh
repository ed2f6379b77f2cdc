/**
 * @file
 * A ROB-limited timing core driving the cache hierarchy.
 *
 * Stands in for the paper's out-of-order cores (Table II): ops dispatch
 * up to dispatchWidth per cycle into a bounded reorder buffer and
 * retire in order up to commitWidth per cycle. Non-memory ops complete
 * in one cycle; memory ops (drawn from a WorkloadProfile) occupy their
 * ROB slot until the cache hierarchy responds. The essential property
 * for the paper's experiments is the closed feedback loop: memory
 * latency fills the ROB and throttles the request stream, which traces
 * cannot capture (Section I).
 *
 * Cores are event-driven (Section II-D): a core that cannot progress
 * without a response or retry from memory stops ticking, and the
 * clock edges it sleeps through are credited to its statistics
 * lazily, exactly as if it had ticked them.
 */

#ifndef DRAMCTRL_CPU_TIMING_CORE_H
#define DRAMCTRL_CPU_TIMING_CORE_H

#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cpu/workload.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/random.hh"
#include "sim/sim_object.hh"
#include "stats/stats.hh"

namespace dramctrl {

struct CoreConfig
{
    /** Core clock period (Table II: 2 GHz). */
    Tick clockPeriod = fromNs(0.5);
    /** Ops dispatched per cycle (Table II: 6-wide dispatch). */
    unsigned dispatchWidth = 6;
    /** Ops committed per cycle (Table II: 8-wide commit). */
    unsigned commitWidth = 8;
    /** Reorder buffer entries (Table II: 40). */
    unsigned robSize = 40;
    /** Ops to run before reporting done (0 = run forever). */
    std::uint64_t numOps = 1'000'000;
    /** Base address of this core's slice of memory. */
    Addr memBase = 0;
    std::uint64_t seed = 1;
};

class TimingCore;

/**
 * The clock of one core clock domain. A single event ticks every
 * awake member on each edge, in the order the members were added, and
 * stays off the agenda while all of them sleep: one event per edge
 * however many cores share the clock, none while they all wait on
 * memory. Its event is named "<name>.tickEvent".
 */
class CoreClock
{
  public:
    CoreClock(EventQueue &eq, std::string name, Tick period);
    ~CoreClock();

    CoreClock(const CoreClock &) = delete;
    CoreClock &operator=(const CoreClock &) = delete;

    Tick period() const { return period_; }

    /** Add @p core to the domain; members tick in the order added. */
    void add(TimingCore &core);

    /** Have the edge at @p when tick the awake members. */
    void scheduleEdge(Tick when);

  private:
    void tick();

    EventQueue &eq_;
    Tick period_;
    std::vector<TimingCore *> cores_;
    bool inEdge_ = false;
    EventFunctionWrapper tickEvent_;
};

class TimingCore : public SimObject
{
  public:
    /**
     * @p clock is the core's clock domain, shared with other cores;
     * nullptr gives the core a clock of its own, named after it.
     */
    TimingCore(Simulator &sim, std::string name, const CoreConfig &cfg,
               const WorkloadProfile &workload, RequestorId id,
               CoreClock *clock = nullptr);
    ~TimingCore() override;

    /** Connect to the L1 data cache. */
    RequestPort &dcachePort() { return port_; }

    void startup() override;

    /** All configured ops committed. */
    bool done() const;

    /** Stalled on memory and off the clock until it responds. */
    bool asleep() const { return state_ == State::Asleep; }

    struct CoreStats
    {
        explicit CoreStats(TimingCore &core);

        stats::Scalar committedOps;
        stats::Scalar memOps;
        stats::Scalar cycles;
        stats::Scalar memStallCycles;
        stats::Formula ipc;
    };

    /** The statistics, with every edge slept through credited. */
    const CoreStats &coreStats();

    /** Instructions per cycle so far. */
    double ipc();

    std::uint64_t committed() const { return committed_; }

  private:
    struct Op
    {
        bool isMem = false;
        bool completed = false;
        std::uint64_t id = 0;
    };

    class DcachePort : public RequestPort
    {
      public:
        DcachePort(std::string name, TimingCore &core)
            : RequestPort(std::move(name)), core_(core)
        {}

        bool recvTimingResp(Packet *pkt) override
        {
            return core_.recvTimingResp(pkt);
        }

        void recvReqRetry() override { core_.recvReqRetry(); }

      private:
        TimingCore &core_;
    };

    friend class CoreClock;

    enum class State
    {
        Idle,   ///< before startup()
        Awake,  ///< ticked by the clock on every edge
        Asleep, ///< stalled until a response or retry arrives
        Done,   ///< all configured ops committed
    };

    void tick();
    /** No op can commit or dispatch until memory responds or retries. */
    bool stalled() const;
    /** Resume ticking on the first edge not yet accounted for. */
    void wake();
    /** Credit the edges in (lastEdge_, @p upto] slept through. */
    void creditSleep(Tick upto);
    void dispatch();
    void commit();
    bool recvTimingResp(Packet *pkt);
    void recvReqRetry();

    Addr nextMemAddr();

    CoreConfig cfg_;
    WorkloadProfile workload_;
    RequestorId id_;
    DcachePort port_;
    Random rng_;

    std::list<Op> rob_;
    std::unordered_map<std::uint64_t, std::list<Op>::iterator>
        inFlight_; // packet id -> ROB slot
    std::uint64_t nextOpId_ = 0;
    std::uint64_t committed_ = 0;

    Packet *blockedPkt_ = nullptr;
    std::list<Op>::iterator blockedOp_;

    Addr cursor_ = 0;

    std::unique_ptr<CoreClock> ownClock_;
    CoreClock *clock_;
    State state_ = State::Idle;
    /** While asleep: the last edge counted in the statistics. */
    Tick lastEdge_ = 0;
    /** While asleep: whether dispatch is blocked on a refused packet. */
    bool sleptBlocked_ = false;

    std::unique_ptr<CoreStats> stats_;
};

} // namespace dramctrl

#endif // DRAMCTRL_CPU_TIMING_CORE_H
