/**
 * @file
 * Shared test fixtures: a scriptable requestor that injects packets at
 * chosen ticks and records response times, plus canned configurations
 * with refresh disabled for deterministic timing checks.
 */

#ifndef DRAMCTRL_TESTS_TEST_UTIL_H
#define DRAMCTRL_TESTS_TEST_UTIL_H

#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "dram/dram_presets.hh"
#include "mem/packet.hh"
#include "mem/port.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"

namespace dramctrl {
namespace testutil {

/**
 * A requestor that injects a scripted list of packets at given ticks
 * and logs every response. Refused packets are re-sent on retry (the
 * injection tick of later packets slips, like a stalled master).
 */
class TestRequestor : public SimObject
{
  public:
    struct Response
    {
        Tick tick;
        std::uint64_t pktId;
        MemCmd cmd;
        Addr addr;
        /** Tick the request was first put on the wire. */
        Tick injected;
        /** Latency attribution stamps carried by the response. */
        stats::LatencySpan span;
    };

    TestRequestor(Simulator &sim, std::string name)
        : SimObject(sim, std::move(name)),
          port_(this->name() + ".port", *this),
          injectEvent_([this] { inject(); },
                       this->name() + ".injectEvent")
    {}

    ~TestRequestor() override
    {
        if (injectEvent_.scheduled())
            deschedule(injectEvent_);
        delete blocked_;
        for (auto &s : script_)
            delete s.pkt;
    }

    RequestPort &port() { return port_; }

    /**
     * Script a packet injection.
     * @return the packet id for matching the response.
     */
    std::uint64_t
    inject(Tick when, MemCmd cmd, Addr addr, unsigned size = 64,
           RequestorId requestor = 0)
    {
        auto *pkt = new Packet(cmd, addr, size, requestor);
        script_.push_back(Scripted{when, pkt});
        if (!injectEvent_.scheduled() ||
            injectEvent_.when() > std::max(curTick(), when))
            reschedule(injectEvent_, std::max(curTick(), when));
        return pkt->id();
    }

    const std::vector<Response> &responses() const { return responses_; }

    /** Response tick for a packet id; 0 if not (yet) answered. */
    Tick
    responseTick(std::uint64_t pkt_id) const
    {
        auto it = respByPkt_.find(pkt_id);
        return it == respByPkt_.end() ? 0 : it->second;
    }

    bool
    allResponded() const
    {
        return script_.empty() && blocked_ == nullptr &&
               outstanding_ == 0;
    }

    unsigned outstanding() const { return outstanding_; }
    unsigned retries() const { return retries_; }
    /** Ticks at which the port was sent a retry. */
    const std::vector<Tick> &retryTicks() const { return retryTicks_; }

  private:
    struct Scripted
    {
        Tick when;
        Packet *pkt;
    };

    class Port : public RequestPort
    {
      public:
        Port(std::string name, TestRequestor &req)
            : RequestPort(std::move(name)), req_(req)
        {}

        bool recvTimingResp(Packet *pkt) override
        {
            return req_.recvResp(pkt);
        }

        void recvReqRetry() override { req_.retry(); }

      private:
        TestRequestor &req_;
    };

    void
    inject()
    {
        while (!script_.empty() && blocked_ == nullptr &&
               script_.front().when <= curTick()) {
            Packet *pkt = script_.front().pkt;
            script_.pop_front();
            pkt->setInjectedTick(curTick());
            ++outstanding_;
            if (!port_.sendTimingReq(pkt)) {
                ++retries_;
                --outstanding_;
                blocked_ = pkt;
                return;
            }
        }
        if (!script_.empty() && blocked_ == nullptr)
            reschedule(injectEvent_,
                       std::max(curTick(), script_.front().when));
    }

    void
    retry()
    {
        retryTicks_.push_back(curTick());
        Packet *pkt = blocked_;
        blocked_ = nullptr;
        ++outstanding_;
        if (!port_.sendTimingReq(pkt)) {
            --outstanding_;
            blocked_ = pkt;
            return;
        }
        inject();
    }

    bool
    recvResp(Packet *pkt)
    {
        responses_.push_back(Response{curTick(), pkt->id(),
                                      pkt->cmd(), pkt->addr(),
                                      pkt->injectedTick(),
                                      pkt->span()});
        respByPkt_[pkt->id()] = curTick();
        --outstanding_;
        delete pkt;
        return true;
    }

    Port port_;
    std::deque<Scripted> script_;
    std::vector<Response> responses_;
    std::map<std::uint64_t, Tick> respByPkt_;
    Packet *blocked_ = nullptr;
    unsigned outstanding_ = 0;
    unsigned retries_ = 0;
    std::vector<Tick> retryTicks_;
    EventFunctionWrapper injectEvent_;
};

/** DDR3-1333 with refresh disabled: fully deterministic timing. */
inline DRAMCtrlConfig
noRefreshConfig()
{
    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.timing.tREFI = 0;
    return cfg;
}

/** Same, with zero static latencies (bare DRAM timing visible). */
inline DRAMCtrlConfig
bareTimingConfig()
{
    DRAMCtrlConfig cfg = noRefreshConfig();
    cfg.frontendLatency = 0;
    cfg.backendLatency = 0;
    return cfg;
}

} // namespace testutil
} // namespace dramctrl

#endif // DRAMCTRL_TESTS_TEST_UTIL_H
