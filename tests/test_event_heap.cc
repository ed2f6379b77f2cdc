/**
 * @file
 * Targeted tests for the intrusive-heap agenda: tie-break stability,
 * mutation from inside handlers, and a randomised cross-check against
 * an ordered-set reference model of the (when, priority, seq) order.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/eventq.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace {

class EventHeapTest : public ::testing::Test
{
  protected:
    void SetUp() override { setThrowOnError(true); }
    void TearDown() override { setThrowOnError(false); }
};

TEST_F(EventHeapTest, RescheduleJoinsBackOfTickClass)
{
    // a, b, c scheduled at t=10; rescheduling a to the same tick must
    // move it behind b and c (fresh sequence number), exactly like
    // deschedule+schedule.
    EventQueue eq;
    std::vector<int> order;
    EventFunctionWrapper a([&] { order.push_back(1); }, "a");
    EventFunctionWrapper b([&] { order.push_back(2); }, "b");
    EventFunctionWrapper c([&] { order.push_back(3); }, "c");
    eq.schedule(a, 10);
    eq.schedule(b, 10);
    eq.schedule(c, 10);
    eq.reschedule(a, 10);
    eq.simulate();
    EXPECT_EQ(order, (std::vector<int>{2, 3, 1}));
}

TEST_F(EventHeapTest, SameTickFifoSurvivesHeapChurn)
{
    // Interleave far-future events with a same-tick FIFO group so the
    // group's members occupy scattered heap slots, then check the
    // group still fires in schedule order.
    EventQueue eq;
    std::vector<int> order;
    std::vector<std::unique_ptr<EventFunctionWrapper>> events;
    std::vector<std::unique_ptr<EventFunctionWrapper>> noise;
    for (int i = 0; i < 32; ++i) {
        events.push_back(std::make_unique<EventFunctionWrapper>(
            [&order, i] { order.push_back(i); }, "fifo"));
        noise.push_back(std::make_unique<EventFunctionWrapper>(
            [] {}, "noise"));
        eq.schedule(*noise.back(), 1000 + i);
        eq.schedule(*events.back(), 10);
    }
    // Remove half the noise to force removeAt() refills mid-heap.
    for (int i = 0; i < 32; i += 2)
        eq.deschedule(*noise[i]);
    eq.simulate(10);
    std::vector<int> expect;
    for (int i = 0; i < 32; ++i)
        expect.push_back(i);
    EXPECT_EQ(order, expect);
    for (auto &ev : noise)
        if (ev->scheduled())
            eq.deschedule(*ev);
}

TEST_F(EventHeapTest, DescheduleFromInsideProcess)
{
    // An event's handler deschedules a later event and a same-tick
    // event that has not yet run.
    EventQueue eq;
    bool later_fired = false;
    bool peer_fired = false;
    EventFunctionWrapper later([&] { later_fired = true; }, "later");
    EventFunctionWrapper peer([&] { peer_fired = true; }, "peer");
    EventFunctionWrapper killer(
        [&] {
            eq.deschedule(later);
            eq.deschedule(peer);
        },
        "killer");
    eq.schedule(killer, 10);
    eq.schedule(peer, 10);
    eq.schedule(later, 99);
    eq.simulate();
    EXPECT_FALSE(later_fired);
    EXPECT_FALSE(peer_fired);
    EXPECT_TRUE(eq.empty());
}

TEST_F(EventHeapTest, RescheduleFromInsideProcess)
{
    // A handler pulls a far-future event earlier and pushes a near
    // event further out; both must fire at their final ticks.
    EventQueue eq;
    std::vector<Tick> fired;
    EventFunctionWrapper far([&] { fired.push_back(eq.curTick()); },
                             "far");
    EventFunctionWrapper near([&] { fired.push_back(eq.curTick()); },
                              "near");
    EventFunctionWrapper mover(
        [&] {
            eq.reschedule(far, 20);
            eq.reschedule(near, 500);
        },
        "mover");
    eq.schedule(mover, 10);
    eq.schedule(near, 15);
    eq.schedule(far, 10000);
    eq.simulate();
    EXPECT_EQ(fired, (std::vector<Tick>{20, 500}));
}

TEST_F(EventHeapTest, SelfRescheduleFromProcessRepeats)
{
    EventQueue eq;
    int count = 0;
    EventFunctionWrapper repeater(
        [&] {
            if (++count < 5)
                eq.schedule(repeater, eq.curTick() + 10);
        },
        "repeater");
    eq.schedule(repeater, 10);
    eq.simulate();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.curTick(), 50u);
}

TEST_F(EventHeapTest, RandomOpsMatchOrderedSetReference)
{
    // Thousands of random schedule/deschedule/reschedule operations,
    // mirrored into a std::set reference keyed (when, priority, seq)
    // with a shadow sequence counter that advances exactly when the
    // queue's does. After each burst every pending event's orderOf()
    // must equal its rank in the reference, and drains between bursts
    // must fire events in the reference order.
    EventQueue eq;
    std::mt19937 rng(0xD2A3);

    struct Probe : Event
    {
        Probe(int id, Priority prio, std::vector<int> &log)
            : Event(prio), id_(id), log_(&log)
        {}
        void process() override { log_->push_back(id_); }
        std::string name() const override
        {
            return "probe" + std::to_string(id_);
        }
        int id_;
        std::vector<int> *log_;
    };

    constexpr int kEvents = 64;
    std::vector<int> fired;
    std::vector<std::unique_ptr<Probe>> probes;
    for (int i = 0; i < kEvents; ++i)
        probes.push_back(std::make_unique<Probe>(
            i, static_cast<Event::Priority>(i % 3 - 1), fired));

    // Reference model: (when, priority, seq) -> id.
    using Key = std::tuple<Tick, int, std::uint64_t>;
    std::set<std::pair<Key, int>> ref;
    std::vector<Key> key_of(kEvents);
    std::uint64_t shadow_seq = 0;

    auto ref_erase = [&](int id) {
        ref.erase({key_of[id], id});
    };
    auto ref_insert = [&](int id, Tick when) {
        key_of[id] = {when, probes[id]->priority(), shadow_seq++};
        ref.insert({key_of[id], id});
    };

    for (int round = 0; round < 200; ++round) {
        for (int op = 0; op < 20; ++op) {
            int id = static_cast<int>(rng() % kEvents);
            Tick when = eq.curTick() + rng() % 300;
            Probe &ev = *probes[id];
            switch (rng() % 3) {
            case 0:
                if (!ev.scheduled()) {
                    eq.schedule(ev, when);
                    ref_insert(id, when);
                }
                break;
            case 1:
                if (ev.scheduled()) {
                    eq.deschedule(ev);
                    ref_erase(id);
                }
                break;
            case 2:
                if (ev.scheduled())
                    ref_erase(id);
                eq.reschedule(ev, when);
                ref_insert(id, when);
                break;
            }
            ASSERT_EQ(eq.size(), ref.size());
            ASSERT_EQ(eq.nextTick(), ref.empty()
                                         ? kMaxTick
                                         : std::get<0>(ref.begin()->first));
        }

        std::uint64_t rank = 0;
        for (const auto &entry : ref)
            ASSERT_EQ(eq.orderOf(*probes[entry.second]), rank++)
                << "probe " << entry.second << " in round " << round;

        // Drain a few events and compare the firing order.
        std::size_t drain = std::min<std::size_t>(ref.size(), rng() % 8);
        fired.clear();
        std::vector<int> expect;
        for (std::size_t i = 0; i < drain; ++i) {
            expect.push_back(ref.begin()->second);
            ref.erase(ref.begin());
            eq.serviceOne();
        }
        ASSERT_EQ(fired, expect) << "divergence in round " << round;
    }

    // Final full drain.
    fired.clear();
    std::vector<int> expect;
    while (!ref.empty()) {
        expect.push_back(ref.begin()->second);
        ref.erase(ref.begin());
    }
    eq.simulate();
    EXPECT_EQ(fired, expect);
}

} // namespace
} // namespace dramctrl
