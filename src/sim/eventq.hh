/**
 * @file
 * The event queue: an ordered agenda of future events.
 */

#ifndef DRAMCTRL_SIM_EVENTQ_H
#define DRAMCTRL_SIM_EVENTQ_H

#include <cstdint>
#include <vector>

#include "sim/event.hh"
#include "sim/types.hh"

namespace dramctrl {

/**
 * Observer of serviced events, attached with EventQueue::setProfiler.
 * The queue calls record() after each event's process() returns; the
 * hook costs one branch when no profiler is attached.
 */
class EventQueueProfiler
{
  public:
    virtual ~EventQueueProfiler() = default;

    /** @param host_seconds wall-clock time process() took. */
    virtual void record(const Event &ev, double host_seconds) = 0;
};

/**
 * A discrete-event agenda.
 *
 * The queue owns simulated time: curTick() only advances when an event is
 * serviced (or when simulate() runs past the last event). Events are not
 * owned by the queue; the scheduling model object keeps them as members,
 * which is safe because an object never outlives its own events.
 *
 * The agenda is an intrusive binary min-heap over a contiguous vector:
 * each Event carries its own slot, so schedule, deschedule and
 * reschedule are all O(log n) sift operations with no per-operation
 * allocation (the backing vector only grows to the agenda's high-water
 * mark). Ordering is (when, priority, seq): two events at the same tick
 * and priority run in schedule order, and rescheduling re-enters the
 * event at the back of its tick/priority class. Arrival events
 * (Event::kArrivalPriority) are the exception: their seq is fixed when
 * they are built, so same-tick arrivals run in build order however they
 * were scheduled.
 */
class EventQueue
{
  public:
    /** Registers the queue as its thread's tick source (logging.hh). */
    EventQueue();

    /** Unregisters, so a dead queue is never left in the registry. */
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p ev at absolute tick @p when. Scheduling in the past or
     * double-scheduling is a modelling bug and panics.
     */
    void schedule(Event &ev, Tick when);

    /** Remove a scheduled event from the agenda. */
    void deschedule(Event &ev);

    /** Move an already- or not-yet-scheduled event to @p when. */
    void reschedule(Event &ev, Tick when);

    /**
     * Give @p ev, an unscheduled Event::kArrivalPriority event, its
     * fixed place among this queue's arrival events: after every
     * arrival event given one before it. Call once, when @p ev is
     * built, and before it is first scheduled.
     */
    void fixArrivalOrder(Event &ev);

    /** Current simulated time. */
    Tick curTick() const { return curTick_; }

    /** @return true when no events are pending. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap_.size(); }

    /** Tick of the earliest pending event; kMaxTick when empty. */
    Tick nextTick() const;

    /**
     * Service exactly one event (the earliest), advancing curTick to its
     * tick. Panics if the queue is empty.
     */
    void serviceOne();

    /**
     * Run all events with when() <= @p until, then advance curTick to
     * @p until if it is a finite horizon (so back-to-back simulate()
     * calls see monotonic time even across idle stretches).
     *
     * @return the final value of curTick().
     */
    Tick simulate(Tick until = kMaxTick);

    /** Total number of events serviced since construction. */
    std::uint64_t numEventsServiced() const { return numServiced_; }

    /**
     * Service rank of scheduled event @p ev: the number of pending
     * events that would run before it. Checkpoints record this so a
     * restore can re-schedule events in the original relative order
     * (fresh sequence numbers then break same-tick ties identically).
     */
    std::uint64_t orderOf(const Event &ev) const;

    /**
     * Reset simulated time and the serviced-event count to the values
     * a checkpoint recorded. Only legal on an empty agenda (restore
     * sets time before any event is re-scheduled).
     */
    void restoreState(Tick when, std::uint64_t num_serviced);

    /**
     * Attach @p profiler (not owned; nullptr detaches) to count and
     * time every serviced event.
     */
    void setProfiler(EventQueueProfiler *profiler)
    {
        profiler_ = profiler;
    }

    EventQueueProfiler *profiler() const { return profiler_; }

  private:
    /** Strict weak order of the agenda: (when, priority, seq). */
    static bool
    before(const Event *a, const Event *b)
    {
        if (a->when_ != b->when_)
            return a->when_ < b->when_;
        if (a->priority_ != b->priority_)
            return a->priority_ < b->priority_;
        return a->seq_ < b->seq_;
    }

    /**
     * Stamp @p ev with its place in its tick/priority class: the next
     * schedule-order number, or the fixed one of an arrival event.
     */
    void takeSeq(Event &ev);

    /** Move heap_[slot] up while it precedes its parent. */
    void siftUp(std::size_t slot);
    /** Move heap_[slot] down while a child precedes it. */
    void siftDown(std::size_t slot);
    /** Detach heap_[slot], refilling the hole from the heap's back. */
    void removeAt(std::size_t slot);

    std::vector<Event *> heap_;
    Tick curTick_ = 0;
    std::uint64_t nextSeq_ = 0;
    /** Seq of the next arrival event to be built; 0 means unset. */
    std::uint64_t nextArrivalSeq_ = 1;
    std::uint64_t numServiced_ = 0;
    EventQueueProfiler *profiler_ = nullptr;
};

} // namespace dramctrl

#endif // DRAMCTRL_SIM_EVENTQ_H
