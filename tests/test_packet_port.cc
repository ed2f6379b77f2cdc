/**
 * @file
 * Unit tests for the transaction layer: packet lifecycle, sender-state
 * stack, the port retry protocol, and the time-ordered packet queue.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <utility>
#include <vector>

#include "ckpt/ckpt.hh"
#include "mem/packet.hh"
#include "mem/packet_queue.hh"
#include "mem/port.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"

namespace dramctrl {
namespace {

TEST(PacketTest, CommandPredicates)
{
    Packet rd(MemCmd::ReadReq, 0x40, 64, 1);
    EXPECT_TRUE(rd.isRead());
    EXPECT_TRUE(rd.isRequest());
    EXPECT_FALSE(rd.isWrite());
    EXPECT_FALSE(rd.isResponse());

    rd.makeResponse();
    EXPECT_EQ(rd.cmd(), MemCmd::ReadResp);
    EXPECT_TRUE(rd.isRead());
    EXPECT_TRUE(rd.isResponse());

    Packet wr(MemCmd::WriteReq, 0x80, 32, 2);
    wr.makeResponse();
    EXPECT_EQ(wr.cmd(), MemCmd::WriteResp);
}

TEST(PacketTest, MakeResponseOnResponsePanics)
{
    setThrowOnError(true);
    Packet p(MemCmd::ReadReq, 0, 64, 0);
    p.makeResponse();
    EXPECT_THROW(p.makeResponse(), std::runtime_error);
    setThrowOnError(false);
}

TEST(PacketTest, UniqueIds)
{
    Packet a(MemCmd::ReadReq, 0, 64, 0);
    Packet b(MemCmd::ReadReq, 0, 64, 0);
    EXPECT_NE(a.id(), b.id());
}

TEST(PacketTest, SpanPredicates)
{
    Packet p(MemCmd::ReadReq, 100, 20, 0);
    EXPECT_EQ(p.endAddr(), 120u);
    EXPECT_TRUE(p.isContainedIn(100, 20));
    EXPECT_TRUE(p.isContainedIn(96, 32));
    EXPECT_FALSE(p.isContainedIn(104, 32));
    EXPECT_TRUE(p.overlaps(110, 5));
    EXPECT_TRUE(p.overlaps(90, 11));
    EXPECT_FALSE(p.overlaps(120, 10));
    EXPECT_FALSE(p.overlaps(90, 10));
}

TEST(PacketTest, SenderStateStack)
{
    struct State : Packet::SenderState
    {
        int tag;
        explicit State(int t) : tag(t) {}
    };

    Packet p(MemCmd::ReadReq, 0, 64, 0);
    auto *s1 = new State(1);
    auto *s2 = new State(2);
    p.pushSenderState(s1);
    p.pushSenderState(s2);

    auto *top = static_cast<State *>(p.popSenderState());
    EXPECT_EQ(top->tag, 2);
    delete top;
    top = static_cast<State *>(p.popSenderState());
    EXPECT_EQ(top->tag, 1);
    delete top;
    EXPECT_EQ(p.senderState(), nullptr);
}

TEST(PacketTest, PopEmptySenderStatePanics)
{
    setThrowOnError(true);
    Packet p(MemCmd::ReadReq, 0, 64, 0);
    EXPECT_THROW(p.popSenderState(), std::runtime_error);
    setThrowOnError(false);
}

TEST(PacketTest, LiveCountTracksAllocation)
{
    std::uint64_t before = Packet::liveCount();
    {
        Packet p(MemCmd::ReadReq, 0, 64, 0);
        EXPECT_EQ(Packet::liveCount(), before + 1);
    }
    EXPECT_EQ(Packet::liveCount(), before);
}

/** Scriptable responder used to exercise the retry protocol. */
class StubResponder : public ResponsePort
{
  public:
    explicit StubResponder(std::string name)
        : ResponsePort(std::move(name))
    {}

    bool acceptRequests = true;
    std::vector<Packet *> received;
    int respRetries = 0;

    bool
    recvTimingReq(Packet *pkt) override
    {
        if (!acceptRequests)
            return false;
        received.push_back(pkt);
        return true;
    }

    void recvRespRetry() override { ++respRetries; }
};

class StubRequestor : public RequestPort
{
  public:
    explicit StubRequestor(std::string name)
        : RequestPort(std::move(name))
    {}

    bool acceptResponses = true;
    std::vector<Packet *> received;
    int reqRetries = 0;

    bool
    recvTimingResp(Packet *pkt) override
    {
        if (!acceptResponses)
            return false;
        received.push_back(pkt);
        return true;
    }

    void recvReqRetry() override { ++reqRetries; }
};

TEST(PortTest, BindConnectsBothDirections)
{
    StubRequestor req("req");
    StubResponder resp("resp");
    req.bind(resp);
    EXPECT_TRUE(req.isBound());
    EXPECT_TRUE(resp.isBound());

    Packet p(MemCmd::ReadReq, 0, 64, 0);
    EXPECT_TRUE(req.sendTimingReq(&p));
    ASSERT_EQ(resp.received.size(), 1u);
    EXPECT_EQ(resp.received[0], &p);

    p.makeResponse();
    EXPECT_TRUE(resp.sendTimingResp(&p));
    ASSERT_EQ(req.received.size(), 1u);
}

TEST(PortTest, RefusalAndRetrySignalling)
{
    StubRequestor req("req");
    StubResponder resp("resp");
    req.bind(resp);

    resp.acceptRequests = false;
    Packet p(MemCmd::ReadReq, 0, 64, 0);
    EXPECT_FALSE(req.sendTimingReq(&p));
    resp.sendReqRetry();
    EXPECT_EQ(req.reqRetries, 1);

    req.acceptResponses = false;
    p.makeResponse();
    EXPECT_FALSE(resp.sendTimingResp(&p));
    req.sendRespRetry();
    EXPECT_EQ(resp.respRetries, 1);
}

TEST(PortTest, DoubleBindIsFatal)
{
    setThrowOnError(true);
    StubRequestor req("req");
    StubResponder resp("resp");
    req.bind(resp);
    StubResponder other("other");
    EXPECT_THROW(req.bind(other), std::runtime_error);
    setThrowOnError(false);
}

TEST(PortTest, UnboundSendPanics)
{
    setThrowOnError(true);
    StubRequestor req("req");
    Packet p(MemCmd::ReadReq, 0, 64, 0);
    EXPECT_THROW(req.sendTimingReq(&p), std::runtime_error);
    setThrowOnError(false);
}

/** A minimal responder port for a response queue to send through. */
class QueuePort : public ResponsePort
{
  public:
    using ResponsePort::ResponsePort;
    PacketQueue *queue = nullptr;
    bool recvTimingReq(Packet *) override { return true; }
    void recvRespRetry() override { queue->resume(); }
};

TEST(PacketQueueTest, DeliversInTimeOrder)
{
    Simulator sim;
    SimObject owner(sim, "owner");
    StubRequestor req("req");
    QueuePort qport("qport");
    req.bind(qport);
    PacketQueue queue(owner, "queue", Event::kResponsePriority, qport);

    auto *a = new Packet(MemCmd::ReadReq, 0, 64, 0);
    auto *b = new Packet(MemCmd::ReadReq, 64, 64, 0);
    a->makeResponse();
    b->makeResponse();

    // Pushed out of order; must be delivered in tick order.
    queue.deliver(200, b, 0);
    queue.deliver(100, a, 0);

    sim.run(1000);
    ASSERT_EQ(req.received.size(), 2u);
    EXPECT_EQ(req.received[0], a);
    EXPECT_EQ(req.received[1], b);
    delete a;
    delete b;
}

TEST(PacketQueueTest, StallsOnRefusalAndResumesOnRetry)
{
    Simulator sim;
    SimObject owner(sim, "owner");
    StubRequestor req("req");
    QueuePort qport("qport");
    req.bind(qport);
    PacketQueue queue(owner, "queue", Event::kResponsePriority, qport);
    qport.queue = &queue;

    auto *a = new Packet(MemCmd::ReadReq, 0, 64, 0);
    a->makeResponse();

    req.acceptResponses = false;
    queue.deliver(50, a, 0);
    sim.run(100);
    EXPECT_TRUE(req.received.empty());
    EXPECT_FALSE(queue.empty());

    req.acceptResponses = true;
    req.sendRespRetry();
    ASSERT_EQ(req.received.size(), 1u);
    EXPECT_TRUE(queue.empty());
    delete a;
}

/**
 * A queue whose handler logs (tick, packet address) of each entry it
 * takes and frees the packet, or refuses while @c accept is false.
 */
struct LoggedQueue
{
    explicit LoggedQueue(Simulator &sim)
        : owner(sim, "owner"),
          queue(owner, "queue", Event::kResponsePriority,
                [this](Tick, Packet *pkt, std::uint64_t) {
                    if (!accept)
                        return false;
                    log.emplace_back(owner.curTick(), pkt->addr());
                    delete pkt;
                    return true;
                })
    {
    }

    void
    push(Tick when, Addr addr)
    {
        queue.deliver(when, new Packet(MemCmd::ReadReq, addr, 64, 0), 0);
    }

    SimObject owner;
    bool accept = true;
    std::vector<std::pair<Tick, Addr>> log;
    PacketQueue queue;
};

using Log = std::vector<std::pair<Tick, Addr>>;

TEST(PacketQueueTest, EqualTicksDeliverInPushOrder)
{
    Simulator sim;
    LoggedQueue q(sim);
    q.push(100, 0x40);
    q.push(100, 0x80);
    q.push(50, 0x00);
    q.push(100, 0xc0);
    sim.run(1000);
    EXPECT_EQ(q.log,
              (Log{{50, 0x00}, {100, 0x40}, {100, 0x80}, {100, 0xc0}}));
}

TEST(PacketQueueTest, PushWhileStalledSchedulesNothing)
{
    Simulator sim;
    LoggedQueue q(sim);
    q.accept = false;
    q.push(50, 0x00);
    sim.run(100);
    EXPECT_TRUE(q.log.empty());
    EXPECT_EQ(sim.eventq().nextTick(), kMaxTick);

    q.push(150, 0x40);
    EXPECT_EQ(sim.eventq().nextTick(), kMaxTick);
    sim.run(200);
    EXPECT_TRUE(q.log.empty());

    q.accept = true;
    q.queue.resume();
    EXPECT_EQ(q.log, (Log{{200, 0x00}, {200, 0x40}}));
    EXPECT_TRUE(q.queue.empty());
}

TEST(PacketQueueTest, CheckpointRoundTripKeepsOrderAndTicks)
{
    // Stalled at tick 100 on the entry due at 50, with two more due at
    // 150: the restored queue must deliver what the original does.
    auto stalled = [](Simulator &sim, LoggedQueue &q) {
        q.accept = false;
        q.push(150, 0x40);
        q.push(50, 0x00);
        q.push(150, 0x80);
        sim.run(100);
        ASSERT_TRUE(q.log.empty());
        ASSERT_EQ(q.queue.size(), 3u);
    };
    auto finish = [](Simulator &sim, LoggedQueue &q) {
        q.accept = true;
        q.queue.resume();
        sim.run(1000);
        return q.log;
    };

    Simulator sim;
    LoggedQueue q(sim);
    stalled(sim, q);
    std::ostringstream os;
    {
        ckpt::CkptOut out(os);
        ckpt::Io io(out);
        io.section("q", [&] { q.queue.checkpoint(io, "q"); });
    }
    const Log want = finish(sim, q);
    EXPECT_EQ(want, (Log{{100, 0x00}, {150, 0x40}, {150, 0x80}}));

    Simulator sim2;
    sim2.eventq().restoreState(100, sim.eventq().numEventsServiced());
    LoggedQueue q2(sim2);
    q2.accept = false;
    std::istringstream is(os.str());
    ckpt::CkptIn in(is);
    ckpt::Io io(in);
    io.section("q", [&] { q2.queue.checkpoint(io, "q"); });
    in.finalizeEvents();
    EXPECT_EQ(q2.queue.size(), 3u);
    EXPECT_EQ(finish(sim2, q2), want);
}

} // namespace
} // namespace dramctrl
