/**
 * @file
 * Tests for the crossbar: routing, channel interleaving, response
 * route-back by requestor id, latency accounting, credit back
 * pressure and contention, and the events credits cost.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "dram/dram_ctrl.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "xbar/xbar.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using testutil::TestRequestor;

/** Two-channel system: requestor -> crossbar -> 2 event controllers. */
class XbarSystem
{
  public:
    explicit XbarSystem(std::uint64_t granularity = 64,
                        XBarConfig xcfg = XBarConfig{},
                        std::vector<RequestorId> ids = {0})
    {
        DRAMCtrlConfig cfg = testutil::bareTimingConfig();
        xbar = std::make_unique<Crossbar>(sim, "xbar", xcfg);
        auto ranges = interleavedRanges(
            0, 2 * cfg.org.channelCapacity, granularity, 2);
        for (unsigned ch = 0; ch < 2; ++ch) {
            ctrls.push_back(std::make_unique<DRAMCtrl>(
                sim, "ctrl" + std::to_string(ch), cfg, ranges[ch]));
            xbar->addChannel(ctrls.back()->port(), ranges[ch]);
        }
        req = std::make_unique<TestRequestor>(sim, "req");
        req->port().bind(xbar->addFrontPort(ids));
    }

    /** Scalar @p stat of crossbar port @p port ("front0", "ch1"). */
    double
    stat(const std::string &port, const std::string &stat)
    {
        const stats::Group *g =
            sim.rootStats().findChild("xbar." + port);
        EXPECT_NE(g, nullptr) << port;
        return g != nullptr ? g->find(stat)->sampleValue() : -1.0;
    }

    Simulator sim;
    std::unique_ptr<Crossbar> xbar;
    std::vector<std::unique_ptr<DRAMCtrl>> ctrls;
    std::unique_ptr<TestRequestor> req;
};

/** A memory-side port that is never sent to. */
class IdleResponder : public ResponsePort
{
  public:
    IdleResponder() : ResponsePort("idle") {}
    bool recvTimingReq(Packet *) override { return false; }
    void recvRespRetry() override {}
};

/** Records the name and tick of every serviced crossbar event. */
class XbarEventLog : public EventQueueProfiler
{
  public:
    explicit XbarEventLog(Simulator &sim) : sim_(sim)
    {
        sim.eventq().setProfiler(this);
    }

    ~XbarEventLog() override { sim_.eventq().setProfiler(nullptr); }

    XbarEventLog(const XbarEventLog &) = delete;
    XbarEventLog &operator=(const XbarEventLog &) = delete;

    struct Entry
    {
        std::string name;
        Tick when;
    };

    void
    record(const Event &ev, double) override
    {
        // Not ev.when(): an inbox wake may have rescheduled itself.
        if (ev.name().rfind("xbar.", 0) == 0)
            entries.push_back({ev.name(), sim_.curTick()});
    }

    /** The entries named @p name, in service order. */
    std::vector<Entry>
    named(const std::string &name) const
    {
        std::vector<Entry> out;
        for (const Entry &e : entries)
            if (e.name == name)
                out.push_back(e);
        return out;
    }

    std::vector<Entry> entries;

  private:
    Simulator &sim_;
};

/**
 * A memory that accepts every request and answers only when told,
 * holding a refused response for the retry (whose ticks it records).
 */
class ScriptedMemory : public ResponsePort
{
  public:
    explicit ScriptedMemory(Simulator &sim)
        : ResponsePort("probe_mem"), sim_(sim)
    {
    }

    ~ScriptedMemory() override
    {
        for (Packet *pkt : held_)
            delete pkt;
    }

    bool
    recvTimingReq(Packet *pkt) override
    {
        held_.push_back(pkt);
        return true;
    }

    /** Answer every held request, in arrival order, from now on. */
    void
    respondAll()
    {
        while (!held_.empty()) {
            Packet *pkt = held_.front();
            if (!pkt->isResponse())
                pkt->makeResponse();
            if (!sendTimingResp(pkt))
                return; // the retry resumes here
            held_.erase(held_.begin());
        }
    }

    void
    recvRespRetry() override
    {
        retryTicks.push_back(sim_.curTick());
        respondAll();
    }

    std::size_t held() const { return held_.size(); }

    std::vector<Tick> retryTicks;

  private:
    Simulator &sim_;
    std::vector<Packet *> held_;
};

TEST(XbarTest, RoutesByInterleavedAddress)
{
    XbarSystem sys;
    EXPECT_EQ(sys.xbar->routeChannel(0), 0u);
    EXPECT_EQ(sys.xbar->routeChannel(64), 1u);
    EXPECT_EQ(sys.xbar->routeChannel(128), 0u);
}

TEST(XbarTest, UnmappedAddressIsFatal)
{
    setThrowOnError(true);
    XbarSystem sys;
    EXPECT_THROW(sys.xbar->routeChannel(1ULL << 60), std::runtime_error);
    setThrowOnError(false);
}

TEST(XbarTest, OverlappingRangeRejected)
{
    setThrowOnError(true);
    Simulator sim;
    Crossbar xbar(sim, "xbar", XBarConfig{});
    IdleResponder a, b;
    xbar.addChannel(a, AddrRange(0, 4096));
    EXPECT_THROW(xbar.addChannel(b, AddrRange(2048, 4096)),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(XbarTest, RequestsReachTheRightChannel)
{
    XbarSystem sys;
    // Four line-interleaved reads: two per channel.
    for (unsigned i = 0; i < 4; ++i)
        sys.req->inject(0, MemCmd::ReadReq, i * 64);
    sys.sim.run(fromUs(10));
    EXPECT_TRUE(sys.req->allResponded());
    EXPECT_EQ(sys.ctrls[0]->ctrlStats().readReqs.value(), 2.0);
    EXPECT_EQ(sys.ctrls[1]->ctrlStats().readReqs.value(), 2.0);
}

TEST(XbarTest, ResponsesRouteBackWithLatency)
{
    XBarConfig xcfg;
    xcfg.frontendLatency = fromNs(3);
    xcfg.responseLatency = fromNs(3);
    xcfg.width = 16;
    xcfg.clockPeriod = fromNs(1);
    XbarSystem sys(64, xcfg);
    auto id = sys.req->inject(0, MemCmd::ReadReq, 0);
    sys.sim.run(fromUs(10));
    // Bare DRAM latency plus both crossbar directions: header latency
    // and 64/16 = 4 cycles serialisation each way.
    Tick dram = fromNs(13.75 + 13.75 + 6);
    Tick xbar_each_way = fromNs(3) + 4 * fromNs(1);
    EXPECT_EQ(sys.req->responseTick(id), dram + 2 * xbar_each_way);
}

TEST(XbarTest, PageInterleavingSendsWholeRowsToOneChannel)
{
    XbarSystem sys(1024); // page granularity
    for (unsigned i = 0; i < 16; ++i)
        sys.req->inject(0, MemCmd::ReadReq, i * 64); // one whole row
    sys.sim.run(fromUs(10));
    EXPECT_EQ(sys.ctrls[0]->ctrlStats().readReqs.value(), 16.0);
    EXPECT_EQ(sys.ctrls[1]->ctrlStats().readReqs.value(), 0.0);
}

TEST(XbarTest, StatsCountForwardedTraffic)
{
    XbarSystem sys;
    for (unsigned i = 0; i < 6; ++i)
        sys.req->inject(0, MemCmd::ReadReq, i * 64);
    sys.sim.run(fromUs(10));
    EXPECT_EQ(sys.stat("front0", "reqs_forwarded"), 6.0);
    EXPECT_EQ(sys.stat("front0", "req_stalls"), 0.0);
    // Line interleaving answered three reads from each channel.
    EXPECT_EQ(sys.stat("ch0", "resps_forwarded"), 3.0);
    EXPECT_EQ(sys.stat("ch1", "resps_forwarded"), 3.0);
    EXPECT_TRUE(sys.xbar->idle());
}

TEST(XbarTest, CreditExhaustionStallsRequests)
{
    // More requests to one channel than the front holds credits for:
    // the requestor must observe retries, and everything completes.
    XbarSystem sys;
    for (unsigned i = 0; i < 10; ++i)
        sys.req->inject(0, MemCmd::ReadReq, i * 128); // all channel 0
    sys.sim.run(fromUs(50));
    EXPECT_TRUE(sys.req->allResponded());
    EXPECT_GT(sys.req->retries(), 0u);
    EXPECT_GT(sys.stat("front0", "req_stalls"), 0.0);
    EXPECT_EQ(sys.stat("front0", "reqs_forwarded"), 10.0);
    EXPECT_TRUE(sys.xbar->idle());
}

TEST(XbarTest, InboxesStayAtTheirCreditBound)
{
    // Three requestors flood two channels: every front runs out of
    // request credits. Wiring sized each inbox for its credit bound
    // (kCredits per peer), so the run grows none of them.
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    Simulator sim;
    Crossbar xbar(sim, "xbar", XBarConfig{});
    auto ranges =
        interleavedRanges(0, 2 * cfg.org.channelCapacity, 64, 2);
    std::vector<std::unique_ptr<DRAMCtrl>> ctrls;
    for (unsigned ch = 0; ch < 2; ++ch) {
        ctrls.push_back(std::make_unique<DRAMCtrl>(
            sim, "ctrl" + std::to_string(ch), cfg, ranges[ch]));
        xbar.addChannel(ctrls.back()->port(), ranges[ch]);
    }
    std::vector<std::unique_ptr<TestRequestor>> reqs;
    for (unsigned r = 0; r < 3; ++r) {
        auto id = static_cast<RequestorId>(r);
        reqs.push_back(std::make_unique<TestRequestor>(
            sim, "req" + std::to_string(r)));
        reqs.back()->port().bind(xbar.addFrontPort({id}));
        for (unsigned i = 0; i < 40; ++i)
            reqs.back()->inject(0, MemCmd::ReadReq,
                                (r * 40 + i) * 64, 64, id);
    }
    // Fronts first, then channels.
    const std::vector<std::size_t> wired = xbar.inboxCapacities();
    ASSERT_EQ(wired.size(), 5u);
    for (unsigned i = 0; i < 5; ++i)
        EXPECT_GE(wired[i], Crossbar::kCredits * (i < 3 ? 2 : 3)) << i;

    sim.run(fromUs(50));
    for (const auto &req : reqs) {
        EXPECT_TRUE(req->allResponded());
        EXPECT_GT(req->retries(), 0u);
    }
    EXPECT_TRUE(xbar.idle());
    EXPECT_EQ(xbar.inboxCapacities(), wired);
}

TEST(XbarTest, RoundTripWithCreditsHomeRunsOnlyArrivalEvents)
{
    // Credits cost no event while the sender has one: a round trip is
    // the request's arrival at the channel and the response's arrival
    // at the front, and the two returned credits are counted lazily.
    XbarSystem sys;
    XbarEventLog log(sys.sim);
    sys.req->inject(0, MemCmd::ReadReq, 0);
    sys.sim.run(fromUs(10));

    EXPECT_TRUE(sys.req->allResponded());
    ASSERT_EQ(log.entries.size(), 2u);
    EXPECT_EQ(log.entries[0].name, "xbar.ch0.req.wake");
    EXPECT_EQ(log.entries[1].name, "xbar.front0.resp.wake");
    EXPECT_TRUE(sys.xbar->idle());
}

TEST(XbarTest, StalledFrontIsRetriedWhenItsFirstCreditIsDue)
{
    // Five reads to channel 0 at tick 0: four spend the front's
    // credits, the fifth is refused. One wake, at the tick the first
    // credit comes home, retries it.
    XBarConfig xcfg;
    XbarSystem sys(64, xcfg);
    XbarEventLog log(sys.sim);
    for (unsigned i = 0; i <= Crossbar::kCredits; ++i)
        sys.req->inject(0, MemCmd::ReadReq, i * 128);
    sys.sim.run(fromUs(10));

    // The controller took the first read when it arrived; its credit
    // is home one response latency later: 4 ns lane + 3 ns + 3 ns.
    auto arrivals = log.named("xbar.ch0.req.wake");
    ASSERT_FALSE(arrivals.empty());
    Tick first_due = arrivals.front().when + xcfg.responseLatency;
    EXPECT_EQ(first_due, fromNs(10));
    EXPECT_EQ(sys.req->retryTicks(), std::vector<Tick>{first_due});
    auto wakes = log.named("xbar.front0.credit.wake");
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0].when, first_due);

    EXPECT_TRUE(sys.req->allResponded());
    EXPECT_EQ(sys.stat("front0", "req_stalls"), 1.0);
    EXPECT_TRUE(sys.xbar->idle());
}

TEST(XbarTest, StalledChannelIsRetriedWhenItsFirstCreditIsDue)
{
    // A memory answers five held reads at once: four responses spend
    // the channel's credits toward the front, the fifth is refused.
    // One wake, at the tick the front's first credit comes home,
    // retries it.
    Simulator sim;
    XBarConfig xcfg;
    Crossbar xbar(sim, "xbar", xcfg);
    ScriptedMemory mem(sim);
    xbar.addChannel(mem, AddrRange(0, 1 << 20));
    TestRequestor req(sim, "req");
    req.port().bind(xbar.addFrontPort({0}));
    for (unsigned i = 0; i <= Crossbar::kCredits; ++i)
        req.inject(0, MemCmd::ReadReq, i * 64);
    sim.run(fromUs(1));
    ASSERT_EQ(mem.held(), Crossbar::kCredits + 1);

    XbarEventLog log(sim);
    mem.respondAll();
    EXPECT_EQ(mem.held(), 1u);
    sim.run(fromUs(2));

    // The front handed the first response on when it arrived; its
    // credit is home one frontend latency later.
    auto arrivals = log.named("xbar.front0.resp.wake");
    ASSERT_FALSE(arrivals.empty());
    Tick first_due = arrivals.front().when + xcfg.frontendLatency;
    EXPECT_EQ(first_due, fromUs(1) + fromNs(10));
    EXPECT_EQ(mem.retryTicks, std::vector<Tick>{first_due});
    auto wakes = log.named("xbar.ch0.credit.wake");
    ASSERT_EQ(wakes.size(), 1u);
    EXPECT_EQ(wakes[0].when, first_due);

    EXPECT_EQ(mem.held(), 0u);
    EXPECT_TRUE(req.allResponded());
    EXPECT_TRUE(xbar.idle());
}

TEST(XbarTest, IdleCountsACreditHomeOnceItsReturnIsDue)
{
    XbarSystem sys;
    XBarConfig xcfg;
    auto id = sys.req->inject(0, MemCmd::ReadReq, 0);
    // Bare DRAM latency plus 3 ns and 4 lane cycles each way.
    Tick responded = fromNs(13.75 + 13.75 + 6) + 2 * fromNs(3 + 4);
    sys.sim.run(responded);
    EXPECT_EQ(sys.req->responseTick(id), responded);

    // The front's response credit is still in flight to the channel.
    EXPECT_FALSE(sys.xbar->idle());
    sys.sim.run(responded + xcfg.frontendLatency - 1);
    EXPECT_FALSE(sys.xbar->idle());
    // Due now: home, though no event has counted it.
    sys.sim.run(responded + xcfg.frontendLatency);
    EXPECT_TRUE(sys.xbar->idle());
}

TEST(XbarTest, FrontAnswersForEveryDeclaredRequestor)
{
    // One port speaking for three requestors, like a shared cache:
    // every response comes back to it, whichever id it carries.
    XbarSystem sys(64, XBarConfig{}, {3, 0, 7});
    for (unsigned i = 0; i < 6; ++i)
        sys.req->inject(0, MemCmd::ReadReq, i * 64, 64,
                        static_cast<RequestorId>(i % 2 ? 3 : 7));
    sys.req->inject(0, MemCmd::ReadReq, 6 * 64);
    sys.sim.run(fromUs(10));
    EXPECT_TRUE(sys.req->allResponded());
    EXPECT_EQ(sys.req->responses().size(), 7u);
}

TEST(XbarTest, DuplicateRequestorIdIsFatal)
{
    setThrowOnError(true);
    XbarSystem sys(64, XBarConfig{}, {0, 1});
    EXPECT_THROW(sys.xbar->addFrontPort({2, 1}), std::runtime_error);
    EXPECT_THROW(sys.xbar->addFrontPort({4, 4}), std::runtime_error);
    setThrowOnError(false);
}

TEST(XbarTest, ResponseForUnknownRequestorIsFatal)
{
    setThrowOnError(true);
    XbarSystem sys;
    sys.req->inject(0, MemCmd::ReadReq, 0, 64, 5);
    EXPECT_THROW(sys.sim.run(fromUs(10)), std::runtime_error);
    setThrowOnError(false);
}

TEST(XbarTest, ManyRequestorsShareChannels)
{
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    Simulator sim;
    Crossbar xbar(sim, "xbar", XBarConfig{});
    auto ranges =
        interleavedRanges(0, 2 * cfg.org.channelCapacity, 64, 2);
    std::vector<std::unique_ptr<DRAMCtrl>> ctrls;
    for (unsigned ch = 0; ch < 2; ++ch) {
        ctrls.push_back(std::make_unique<DRAMCtrl>(
            sim, "ctrl" + std::to_string(ch), cfg, ranges[ch]));
        xbar.addChannel(ctrls.back()->port(), ranges[ch]);
    }
    std::vector<std::unique_ptr<LinearGen>> gens;
    for (unsigned g = 0; g < 4; ++g) {
        GenConfig gc;
        gc.startAddr = g * (1 << 20);
        gc.windowSize = 1 << 20;
        gc.numRequests = 200;
        gc.minITT = gc.maxITT = fromNs(10);
        gc.seed = g + 1;
        gens.push_back(std::make_unique<LinearGen>(
            sim, "gen" + std::to_string(g), gc,
            static_cast<RequestorId>(g)));
        gens.back()->port().bind(
            xbar.addFrontPort({static_cast<RequestorId>(g)}));
    }
    harness::runUntil(sim, [&] {
        return std::all_of(gens.begin(), gens.end(),
                           [](const auto &g) { return g->done(); });
    });
    for (const auto &g : gens) {
        EXPECT_TRUE(g->done());
        EXPECT_EQ(g->genStats().recvResponses.value(), 200.0);
    }
    // Interleaving spread the traffic over both channels.
    EXPECT_GT(ctrls[0]->ctrlStats().readReqs.value(), 0.0);
    EXPECT_GT(ctrls[1]->ctrlStats().readReqs.value(), 0.0);
}

} // namespace
} // namespace dramctrl
