#include "sim/eventq.hh"

#include <chrono>

#include "obs/trace.hh"
#include "sim/logging.hh"

namespace dramctrl {

EventQueue::EventQueue()
{
    heap_.reserve(64);
    registerTickSource(this);
}

EventQueue::~EventQueue()
{
    unregisterTickSource(this);
}

void
EventQueue::siftUp(std::size_t slot)
{
    Event *ev = heap_[slot];
    while (slot > 0) {
        std::size_t parent = (slot - 1) / 2;
        if (!before(ev, heap_[parent]))
            break;
        heap_[slot] = heap_[parent];
        heap_[slot]->heapSlot_ = slot;
        slot = parent;
    }
    heap_[slot] = ev;
    ev->heapSlot_ = slot;
}

void
EventQueue::siftDown(std::size_t slot)
{
    Event *ev = heap_[slot];
    const std::size_t n = heap_.size();
    while (true) {
        std::size_t child = 2 * slot + 1;
        if (child >= n)
            break;
        if (child + 1 < n && before(heap_[child + 1], heap_[child]))
            ++child;
        if (!before(heap_[child], ev))
            break;
        heap_[slot] = heap_[child];
        heap_[slot]->heapSlot_ = slot;
        slot = child;
    }
    heap_[slot] = ev;
    ev->heapSlot_ = slot;
}

void
EventQueue::removeAt(std::size_t slot)
{
    Event *moved = heap_.back();
    heap_.pop_back();
    if (slot < heap_.size()) {
        heap_[slot] = moved;
        moved->heapSlot_ = slot;
        // The refill element comes from an arbitrary subtree, so it may
        // need to travel either way.
        siftDown(slot);
        siftUp(moved->heapSlot_);
    }
}

void
EventQueue::takeSeq(Event &ev)
{
    if (ev.priority_ != Event::kArrivalPriority)
        ev.seq_ = nextSeq_++;
    else if (ev.seq_ == 0)
        panic("arrival event '%s' scheduled without a fixed order",
              ev.name().c_str());
}

void
EventQueue::schedule(Event &ev, Tick when)
{
    if (ev.scheduled_)
        panic("event '%s' scheduled twice (already at %llu, now %llu)",
              ev.name().c_str(), static_cast<unsigned long long>(ev.when_),
              static_cast<unsigned long long>(when));
    if (when < curTick_)
        panic("event '%s' scheduled in the past (%llu < now %llu)",
              ev.name().c_str(), static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));

    ev.when_ = when;
    takeSeq(ev);
    ev.scheduled_ = true;
    heap_.push_back(&ev);
    siftUp(heap_.size() - 1);
}

void
EventQueue::fixArrivalOrder(Event &ev)
{
    if (ev.priority_ != Event::kArrivalPriority || ev.scheduled_ ||
        ev.seq_ != 0)
        panic("fixArrivalOrder() on '%s', which is not a new arrival "
              "event", ev.name().c_str());
    ev.seq_ = nextArrivalSeq_++;
}

void
EventQueue::deschedule(Event &ev)
{
    if (!ev.scheduled_)
        panic("deschedule of unscheduled event '%s'", ev.name().c_str());
    removeAt(ev.heapSlot_);
    ev.heapSlot_ = Event::kNoSlot;
    ev.scheduled_ = false;
}

void
EventQueue::reschedule(Event &ev, Tick when)
{
    if (!ev.scheduled_) {
        schedule(ev, when);
        return;
    }
    if (when < curTick_)
        panic("event '%s' rescheduled into the past (%llu < now %llu)",
              ev.name().c_str(), static_cast<unsigned long long>(when),
              static_cast<unsigned long long>(curTick_));

    // In place: take a fresh sequence number (a reschedule joins the
    // back of its new tick/priority class, like deschedule+schedule;
    // an arrival event keeps its fixed place) and sift from the
    // current slot.
    ev.when_ = when;
    takeSeq(ev);
    siftDown(ev.heapSlot_);
    siftUp(ev.heapSlot_);
}

std::uint64_t
EventQueue::orderOf(const Event &ev) const
{
    if (!ev.scheduled_)
        panic("orderOf() on unscheduled event '%s'", ev.name().c_str());
    std::uint64_t rank = 0;
    for (const Event *other : heap_)
        if (other != &ev && before(other, &ev))
            ++rank;
    return rank;
}

void
EventQueue::restoreState(Tick when, std::uint64_t num_serviced)
{
    if (!heap_.empty())
        panic("EventQueue::restoreState() with %zu events pending",
              heap_.size());
    curTick_ = when;
    numServiced_ = num_serviced;
}

Tick
EventQueue::nextTick() const
{
    return heap_.empty() ? kMaxTick : heap_.front()->when_;
}

void
EventQueue::serviceOne()
{
    if (heap_.empty())
        panic("serviceOne() on an empty event queue");

    Event *ev = heap_.front();
    removeAt(0);
    ev->heapSlot_ = Event::kNoSlot;
    ev->scheduled_ = false;
    curTick_ = ev->when_;
    ++numServiced_;

    TRACE(EventQ, "service '%s' (%zu pending)", ev->name().c_str(),
          heap_.size());

    if (profiler_ != nullptr) {
        auto t0 = std::chrono::steady_clock::now();
        ev->process();
        auto t1 = std::chrono::steady_clock::now();
        profiler_->record(
            *ev, std::chrono::duration<double>(t1 - t0).count());
    } else {
        ev->process();
    }
}

Tick
EventQueue::simulate(Tick until)
{
    while (!heap_.empty() && heap_.front()->when_ <= until)
        serviceOne();

    // Advance to the horizon so that callers measuring elapsed simulated
    // time across an idle tail see the full window. An infinite horizon
    // (run-to-exhaustion) leaves curTick at the last event.
    if (until != kMaxTick && until > curTick_)
        curTick_ = until;

    return curTick_;
}

} // namespace dramctrl
