/**
 * @file
 * Host-time split by simulator layer, measured from outside the
 * library.
 *
 * Two instruments feed one HostSplit:
 *
 *  - LayerProfiler, an obs::EventProfiler attached to a shard queue
 *    with EventQueue::setProfiler. Every serviced event is classified
 *    by its name into a Part; its process() time, minus the time of
 *    any PortTap span nested inside it, is that part's self time.
 *  - PortTap, a pass-through port pair between a generator and a
 *    controller. It times each request hand-off (the controller's
 *    enqueue) and each response or retry delivered back (generator
 *    work), and counts refused requests.
 *
 * What is left of the wall time (times the worker count, for sharded
 * runs) after all parts and the profiler's own bookkeeping is the
 * event kernel's share: agenda operations, the run loop and, for the
 * sharded engine, barriers, message merge and load imbalance.
 */

#ifndef HOSTBENCH_LAYERS_HH
#define HOSTBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "mem/port.hh"
#include "obs/event_profiler.hh"

namespace hostbench {

/** A timed slice of one layer; each belongs to exactly one layer. */
enum class Part : unsigned {
    GenInject,    ///< trafficgen: generator injectEvent
    GenRecv,      ///< trafficgen: responses and retries via the tap
    RespQueue,    ///< mem: controller response-queue sendEvent
    NextReq,      ///< dram: event controller nextReqEvent
    DramEnqueue,  ///< dram: event controller recvTimingReq via the tap
    DramOther,    ///< dram: refresh and other controller events
    CycleTick,    ///< cyclesim: cycle controller tickEvent
    CycleEnqueue, ///< cyclesim: cycle controller recvTimingReq via the tap
    XbarSend,     ///< xbar: plain Crossbar layer sendEvent
    XbarWake,     ///< xbar: ShardedCrossbar inbox wake
    CoreTick,     ///< cpu: TimingCore tickEvent
    CacheSend,    ///< cpu: cache response queues
    Other,        ///< anything not named above
    Count
};

constexpr unsigned kNumParts = static_cast<unsigned>(Part::Count);

/** Short name of a part, e.g. "nextReqEvent". */
const char *partName(Part p);

/** Layer a part belongs to, e.g. "dram". */
const char *partLayer(Part p);

/** Host time and call counts of one measured phase. */
struct HostSplit
{
    std::array<double, kNumParts> seconds{};
    std::array<std::uint64_t, kNumParts> calls{};
    /** Host seconds the profiler spent on its own bookkeeping. */
    double bookkeeping = 0;
    /**
     * Events and their whole process() time as the base
     * EventProfiler counted them. The parts must add up to exactly
     * this: every tap span runs inside some event.
     */
    std::uint64_t events = 0;
    double eventSeconds = 0;
    /** Requests offered through a tap, and how many were refused. */
    std::uint64_t tapAttempts = 0;
    std::uint64_t tapRefused = 0;

    double &sec(Part p) { return seconds[static_cast<unsigned>(p)]; }
    std::uint64_t &n(Part p) { return calls[static_cast<unsigned>(p)]; }
    double sec(Part p) const { return seconds[static_cast<unsigned>(p)]; }
    std::uint64_t n(Part p) const
    {
        return calls[static_cast<unsigned>(p)];
    }

    /** Sum of all part self times. */
    double partsSeconds() const;

    void merge(const HostSplit &o);
};

/**
 * Event profiler that also splits host time by layer. One instance
 * per shard queue: a shard runs on one thread per window, so an
 * instance is never used by two threads at once.
 */
class LayerProfiler : public dramctrl::obs::EventProfiler
{
  public:
    void record(const dramctrl::Event &ev, double host_seconds) override;

    /** The split, with the base profiler's event totals filled in. */
    HostSplit split() const;

    /**
     * Time @p fn as a span of @p part nested in the running event.
     * Spans nest: a span's self time excludes its children, and its
     * whole duration is excluded from its parent (the enclosing span
     * or, at the outermost level, the event being processed).
     */
    template <typename Fn>
    auto
    span(Part part, Fn &&fn)
    {
        auto t0 = now();
        stack_.push_back(0.0);
        auto result = fn();
        double total = since(t0);
        double children = stack_.back();
        stack_.pop_back();
        split_.sec(part) += total - children;
        ++split_.n(part);
        (stack_.empty() ? eventChildren_ : stack_.back()) += total;
        return result;
    }

    void countTapRequest(bool accepted)
    {
        ++split_.tapAttempts;
        if (!accepted)
            ++split_.tapRefused;
    }

  private:
    using Clock = std::chrono::steady_clock;
    static Clock::time_point now() { return Clock::now(); }
    static double
    since(Clock::time_point t0)
    {
        return std::chrono::duration<double>(now() - t0).count();
    }

    HostSplit split_;
    /** Classification cache; events live as long as their system. */
    std::unordered_map<const dramctrl::Event *, Part> partOf_;
    std::vector<double> stack_;
    /** Span time nested in the event currently being processed. */
    double eventChildren_ = 0;
};

/**
 * Pass-through between a generator (bind its port to cpuSide()) and a
 * controller (bind memSide() to its port). Untimed until a profiler
 * is set, so warm-up traffic is not attributed.
 */
class PortTap
{
  public:
    /** @p enqueue_part is the controller layer's enqueue part. */
    explicit PortTap(Part enqueue_part)
        : enqueuePart_(enqueue_part), cpuSide_(*this), memSide_(*this)
    {}

    PortTap(const PortTap &) = delete;
    PortTap &operator=(const PortTap &) = delete;

    dramctrl::ResponsePort &cpuSide() { return cpuSide_; }
    dramctrl::RequestPort &memSide() { return memSide_; }

    /** Start (or, with nullptr, stop) timing through @p prof. */
    void setProfiler(LayerProfiler *prof) { prof_ = prof; }

  private:
    class CpuSide : public dramctrl::ResponsePort
    {
      public:
        explicit CpuSide(PortTap &tap)
            : ResponsePort("tap.cpu_side"), tap_(tap)
        {}
        bool recvTimingReq(dramctrl::Packet *pkt) override;
        void recvRespRetry() override;

      private:
        PortTap &tap_;
    };

    class MemSide : public dramctrl::RequestPort
    {
      public:
        explicit MemSide(PortTap &tap)
            : RequestPort("tap.mem_side"), tap_(tap)
        {}
        bool recvTimingResp(dramctrl::Packet *pkt) override;
        void recvReqRetry() override;

      private:
        PortTap &tap_;
    };

    Part enqueuePart_;
    LayerProfiler *prof_ = nullptr;
    CpuSide cpuSide_;
    MemSide memSide_;
};

} // namespace hostbench

#endif // HOSTBENCH_LAYERS_HH
