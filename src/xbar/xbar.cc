#include "xbar/xbar.hh"

#include <algorithm>

#include "ckpt/ckpt.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/shard.hh"
#include "sim/simulator.hh"

namespace dramctrl {

std::vector<AddrRange>
interleavedRanges(Addr base, std::uint64_t total_size,
                  std::uint64_t granularity, unsigned channels)
{
    std::vector<AddrRange> ranges;
    ranges.reserve(channels);
    if (channels == 1) {
        ranges.emplace_back(base, total_size);
        return ranges;
    }
    for (unsigned ch = 0; ch < channels; ++ch)
        ranges.emplace_back(base, total_size, granularity, channels, ch);
    return ranges;
}

// --------------------------------------------------------------------
// ShardInbox
// --------------------------------------------------------------------

ShardInbox::ShardInbox(SimObject &owner, const std::string &name,
                       Handler handler)
    : owner_(owner), handler_(std::move(handler)),
      wakeEvent_([this] { pump(); }, owner.name() + "." + name + ".wake",
                 Event::kArrivalPriority)
{
    owner.eventq().fixArrivalOrder(wakeEvent_);
    // Room for one peer's in-flight packets; insert() grows it past
    // that.
    entries_.init(Crossbar::kCredits);
}

ShardInbox::~ShardInbox()
{
    if (wakeEvent_.scheduled())
        owner_.deschedule(wakeEvent_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        Packet *pkt = entries_[i].pkt;
        if (pkt == nullptr)
            continue;
        while (pkt->senderState() != nullptr)
            delete pkt->popSenderState();
        delete pkt;
    }
}

void
ShardInbox::deliver(Tick when, Packet *pkt, std::uint64_t arg)
{
    // Keep entries sorted by (due tick, sender), then by delivery
    // order. Which barrier delivers a message depends on the run()
    // horizon, so delivery order only breaks ties within one sender,
    // whose messages always arrive in send order. Messages mostly
    // arrive in due order, so the scan from the back usually stops at
    // once.
    std::size_t pos = entries_.size();
    while (pos > 0 && (entries_[pos - 1].when > when ||
                       (entries_[pos - 1].when == when &&
                        entries_[pos - 1].arg > arg)))
        --pos;
    entries_.insert(pos, Entry{when, pkt, arg});
    if (!stalled_)
        scheduleWake();
}

void
ShardInbox::resume()
{
    if (!stalled_)
        return;
    stalled_ = false;
    pump();
}

void
ShardInbox::pump()
{
    while (!entries_.empty() &&
           entries_.front().when <= owner_.curTick()) {
        // A copy: the handler may deliver into this inbox, which can
        // grow (and so move) the ring.
        Entry head = entries_.front();
        if (!handler_(head.when, head.pkt, head.arg)) {
            stalled_ = true;
            return;
        }
        entries_.pop_front();
    }
    if (!entries_.empty())
        scheduleWake();
}

void
ShardInbox::scheduleWake()
{
    DC_ASSERT(!entries_.empty(), "waking an empty inbox");
    Tick head = entries_.front().when;
    if (wakeEvent_.scheduled()) {
        if (wakeEvent_.when() != head)
            owner_.reschedule(wakeEvent_, head);
    } else {
        owner_.schedule(wakeEvent_, head);
    }
}

void
ShardInbox::checkpoint(ckpt::Io &io, const std::string &prefix)
{
    io.flag(prefix + ".stalled", stalled_);
    std::vector<std::uint64_t> whens;
    for (std::size_t i = 0; i < entries_.size(); ++i)
        whens.push_back(entries_[i].when);
    io.list(prefix + ".when", whens);
    // A restore refills the fresh inbox, one entry per saved due tick.
    for (std::size_t i = entries_.size(); i < whens.size(); ++i)
        entries_.insert(i, Entry{whens[i], nullptr, 0});
    io.table(prefix + ".arg", entries_.size(), [this](std::size_t i) {
        return std::tie(entries_[i].arg);
    });
    for (std::size_t i = 0; i < entries_.size(); ++i)
        io.packet(prefix + ".pkt" + std::to_string(i), entries_[i].pkt);
    io.event(prefix + ".wake", owner_.eventq(), wakeEvent_);
}

// --------------------------------------------------------------------
// CreditPool
// --------------------------------------------------------------------

namespace {

/**
 * The credits one crossbar port holds toward its peers: a front's
 * request credits per channel, or a channel's response credits per
 * front. Per peer it keeps the credits at home and the due ticks of
 * the returns still outstanding, in due order (one peer returns in
 * send order, with one fixed latency).
 *
 * A returned credit costs no event. deliver() only records its due
 * tick, and take() first counts every return due by now. Only a port
 * stalled on zero credits schedules a wake: at the stalled peer's
 * earliest outstanding return, or at the return's due tick once it is
 * delivered. The wake calls the port's retry, so the local peer sees
 * the ordinary refuse-then-retry protocol.
 */
class CreditPool : public ShardMailbox
{
  public:
    CreditPool(SimObject &owner, unsigned peers,
               std::function<void()> retry)
        : owner_(owner), retry_(std::move(retry)),
          wakeEvent_([this] { wake(); }, owner.name() + ".credit.wake",
                     Event::kArrivalPriority)
    {
        owner.eventq().fixArrivalOrder(wakeEvent_);
        for (unsigned i = 0; i < peers; ++i)
            addPeer();
    }

    ~CreditPool() override
    {
        if (wakeEvent_.scheduled())
            owner_.deschedule(wakeEvent_);
    }

    /** Track one more peer, every credit home. */
    void
    addPeer()
    {
        peers_.emplace_back();
        peers_.back().returns.init(Crossbar::kCredits);
    }

    /** A credit returned by peer @p arg, home at @p when. */
    void
    deliver(Tick when, Packet *pkt, std::uint64_t arg) override
    {
        DC_ASSERT(pkt == nullptr, "credit message carries a packet");
        unsigned peer = static_cast<unsigned>(arg);
        Peer &p = peers_[peer];
        DC_ASSERT(p.home + p.returns.size() < Crossbar::kCredits,
                  "%s: credit overflow from peer %u",
                  owner_.name().c_str(), peer);
        DC_ASSERT(p.returns.empty() || p.returns.back() <= when,
                  "%s: credit from peer %u returned out of order",
                  owner_.name().c_str(), peer);
        p.returns.push_back(when);
        if (stalled_ && stalledPeer_ == peer && !wakeEvent_.scheduled())
            owner_.schedule(wakeEvent_, when);
    }

    /**
     * Spend one credit toward @p peer. With none home, stall until
     * the retry and return false.
     */
    bool
    take(unsigned peer)
    {
        Peer &p = peers_[peer];
        Tick now = owner_.curTick();
        while (!p.returns.empty() && p.returns.front() <= now) {
            p.returns.pop_front();
            ++p.home;
        }
        if (p.home == 0) {
            DC_ASSERT(!stalled_, "%s: second send while one is stalled",
                      owner_.name().c_str());
            stalled_ = true;
            stalledPeer_ = peer;
            if (!p.returns.empty())
                owner_.schedule(wakeEvent_, p.returns.front());
            return false;
        }
        --p.home;
        return true;
    }

    /** No stall, and every credit home or due by now. */
    bool
    idle() const
    {
        if (stalled_)
            return false;
        for (const Peer &p : peers_) {
            if (p.home + p.returns.size() != Crossbar::kCredits)
                return false;
            if (!p.returns.empty() && p.returns.back() > owner_.curTick())
                return false;
        }
        return true;
    }

    void
    checkpoint(ckpt::Io &io, const std::string &prefix)
    {
        io.flag(prefix + ".stalled", stalled_);
        io.u64(prefix + ".stalled_peer", stalledPeer_);
        io.table(prefix + ".home", peers_.size(), [this](std::size_t i) {
            return std::tie(peers_[i].home);
        });
        // The returns in flight: a count per peer, then every due
        // tick, peer by peer.
        std::vector<std::uint64_t> outstanding, due;
        for (const Peer &p : peers_) {
            outstanding.push_back(p.returns.size());
            for (std::size_t i = 0; i < p.returns.size(); ++i)
                due.push_back(p.returns[i]);
        }
        io.lanes(prefix + ".outstanding", outstanding);
        io.list(prefix + ".due", due);
        if (io.restoring()) {
            auto damaged = [&] {
                fatal("checkpoint section '%s': credit pool '%s' holds "
                      "more than %u credits per peer, or due ticks that "
                      "do not match its outstanding counts",
                      owner_.name().c_str(), prefix.c_str(),
                      Crossbar::kCredits);
            };
            std::size_t next = 0;
            for (std::size_t i = 0; i < peers_.size(); ++i) {
                Peer &p = peers_[i];
                if (p.home + outstanding[i] > Crossbar::kCredits ||
                    outstanding[i] > due.size() - next)
                    damaged();
                for (std::uint64_t j = 0; j < outstanding[i]; ++j)
                    p.returns.push_back(due[next++]);
            }
            if (next != due.size())
                damaged();
        }
        io.event(prefix + ".wake", owner_.eventq(), wakeEvent_);
    }

  private:
    struct Peer
    {
        unsigned home = Crossbar::kCredits;
        /** Due ticks of the returns not yet counted, in due order. */
        RingBuffer<Tick> returns;
    };

    void
    wake()
    {
        stalled_ = false;
        retry_();
    }

    SimObject &owner_;
    std::function<void()> retry_;
    std::vector<Peer> peers_;
    bool stalled_ = false;
    unsigned stalledPeer_ = 0;
    EventFunctionWrapper wakeEvent_;
};

} // namespace

// --------------------------------------------------------------------
// FrontPort — requestor-shard half of the crossbar
// --------------------------------------------------------------------

/**
 * The requestor-facing half: owns the inbound ResponsePort the
 * requestor binds to, one request lane shared across channels, and
 * the per-channel request credits.
 */
class Crossbar::FrontPort : public SimObject
{
  public:
    FrontPort(Simulator &sim, const std::string &name,
              Crossbar &xbar, unsigned index)
        : SimObject(sim, name), xbar_(xbar), index_(index),
          gate_(name + ".port", *this),
          respInbox_(*this, "resp",
                     [this](Tick t, Packet *p, std::uint64_t a) {
                         return handleResp(t, p, a);
                     }),
          credits_(*this, xbar.numChannels(),
                   [this] { gate_.sendReqRetry(); }),
          stats_(*this)
    {
    }

    ResponsePort &gate() { return gate_; }
    ShardInbox &respInbox() { return respInbox_; }
    CreditPool &credits() { return credits_; }

    bool idle() const { return respInbox_.empty() && credits_.idle(); }

    void
    checkpoint(ckpt::Io &io) override
    {
        io.tick("req_busy_until", reqBusyUntil_);
        respInbox_.checkpoint(io, "resp_inbox");
        credits_.checkpoint(io, "req_credits");
    }

  private:
    class Gate : public ResponsePort
    {
      public:
        Gate(std::string name, FrontPort &front)
            : ResponsePort(std::move(name)), front_(front)
        {
        }

        bool
        recvTimingReq(Packet *pkt) override
        {
            return front_.handleReq(pkt);
        }

        void recvRespRetry() override { front_.respInbox_.resume(); }

      private:
        FrontPort &front_;
    };

    /** Request from the local requestor: route, charge, forward. */
    bool handleReq(Packet *pkt);

    /** Response arriving from channel @p arg, due now. */
    bool handleResp(Tick when, Packet *pkt, std::uint64_t arg);

    struct FrontStats
    {
        explicit FrontStats(FrontPort &front)
            : reqsForwarded(&front.statGroup(), "reqs_forwarded",
                            "requests forwarded to a channel"),
              reqStalls(&front.statGroup(), "req_stalls",
                        "requests refused for lack of credit")
        {
        }

        stats::Scalar reqsForwarded;
        stats::Scalar reqStalls;
    };

    friend class Crossbar;

    Crossbar &xbar_;
    const unsigned index_;
    Gate gate_;

    /** When this front's request lane frees up. */
    Tick reqBusyUntil_ = 0;

    ShardInbox respInbox_;
    /** Request credits per channel. */
    CreditPool credits_;
    FrontStats stats_;
};

// --------------------------------------------------------------------
// ChannelPort — controller-shard half of the crossbar
// --------------------------------------------------------------------

/**
 * The controller-facing half: owns the RequestPort bound to the
 * channel's controller, the channel's response lane, and the per-front
 * response credits.
 */
class Crossbar::ChannelPort : public SimObject
{
  public:
    ChannelPort(Simulator &sim, const std::string &name,
                Crossbar &xbar, unsigned index)
        : SimObject(sim, name), xbar_(xbar), index_(index),
          ctrlPort_(name + ".port", *this),
          reqInbox_(*this, "req",
                    [this](Tick t, Packet *p, std::uint64_t a) {
                        return handleReq(t, p, a);
                    }),
          credits_(*this, 0, [this] { ctrlPort_.sendRespRetry(); }),
          stats_(*this)
    {
    }

    RequestPort &ctrlPort() { return ctrlPort_; }
    ShardInbox &reqInbox() { return reqInbox_; }
    CreditPool &credits() { return credits_; }

    /** Called once per front port attached (fronts follow channels). */
    void addFront() { credits_.addPeer(); }

    bool idle() const { return reqInbox_.empty() && credits_.idle(); }

    void
    checkpoint(ckpt::Io &io) override
    {
        io.tick("resp_busy_until", respBusyUntil_);
        reqInbox_.checkpoint(io, "req_inbox");
        credits_.checkpoint(io, "resp_credits");
    }

  private:
    class CtrlPort : public RequestPort
    {
      public:
        CtrlPort(std::string name, ChannelPort &channel)
            : RequestPort(std::move(name)), channel_(channel)
        {
        }

        bool
        recvTimingResp(Packet *pkt) override
        {
            return channel_.handleResp(pkt);
        }

        void recvReqRetry() override { channel_.reqInbox_.resume(); }

      private:
        ChannelPort &channel_;
    };

    /** Request from front @p arg, due now: offer to the controller. */
    bool
    handleReq(Tick when, Packet *pkt, std::uint64_t arg)
    {
        (void)when;
        if (!ctrlPort_.sendTimingReq(pkt))
            return false;
        // Controller accepted: the front may send another request on
        // this channel.
        unsigned front = static_cast<unsigned>(arg);
        xbar_.postMsg(shardId(), xbar_.fronts_[front]->shardId(),
                      curTick() + xbar_.cfg_.responseLatency,
                      xbar_.fronts_[front]->credits(), nullptr, index_);
        return true;
    }

    /** Response from the controller: route back to its front. */
    bool
    handleResp(Packet *pkt)
    {
        unsigned front = xbar_.routeFront(pkt->requestorId());
        if (!credits_.take(front)) {
            TRACE(XBar, "%s: block %s, no credit for front %u",
                  name().c_str(), pkt->toString().c_str(), front);
            ++stats_.respStalls;
            return false;
        }
        TRACE(XBar, "%s: forward %s back to front %u", name().c_str(),
              pkt->toString().c_str(), front);
        Tick now = curTick();
        respBusyUntil_ = std::max(respBusyUntil_, now) +
                         xbar_.occupancy(pkt->size());
        ++stats_.respsForwarded;
        xbar_.postMsg(shardId(), xbar_.fronts_[front]->shardId(),
                      respBusyUntil_ + xbar_.cfg_.responseLatency,
                      xbar_.fronts_[front]->respInbox(), pkt, index_);
        return true;
    }

    struct ChannelStats
    {
        explicit ChannelStats(ChannelPort &channel)
            : respsForwarded(&channel.statGroup(), "resps_forwarded",
                             "responses forwarded to a front port"),
              respStalls(&channel.statGroup(), "resp_stalls",
                         "responses refused for lack of credit")
        {
        }

        stats::Scalar respsForwarded;
        stats::Scalar respStalls;
    };

    friend class Crossbar;

    Crossbar &xbar_;
    const unsigned index_;
    CtrlPort ctrlPort_;

    /** When this channel's response lane frees up. */
    Tick respBusyUntil_ = 0;

    ShardInbox reqInbox_;
    /** Response credits per front. */
    CreditPool credits_;
    ChannelStats stats_;
};

bool
Crossbar::FrontPort::handleReq(Packet *pkt)
{
    unsigned ch = xbar_.routeChannel(pkt->addr());
    if (!credits_.take(ch)) {
        TRACE(XBar, "%s: block %s, no credit for channel %u",
              name().c_str(), pkt->toString().c_str(), ch);
        ++stats_.reqStalls;
        return false;
    }
    TRACE(XBar, "%s: forward %s to channel %u", name().c_str(),
          pkt->toString().c_str(), ch);
    Tick now = curTick();
    reqBusyUntil_ =
        std::max(reqBusyUntil_, now) + xbar_.occupancy(pkt->size());
    ++stats_.reqsForwarded;
    xbar_.postMsg(shardId(), xbar_.channels_[ch]->shardId(),
                  reqBusyUntil_ + xbar_.cfg_.frontendLatency,
                  xbar_.channels_[ch]->reqInbox(), pkt, index_);
    return true;
}

bool
Crossbar::FrontPort::handleResp(Tick when, Packet *pkt,
                                std::uint64_t arg)
{
    (void)when;
    if (!gate_.sendTimingResp(pkt))
        return false;
    // The requestor took the response: hand the channel its response
    // credit back.
    unsigned ch = static_cast<unsigned>(arg);
    xbar_.postMsg(shardId(), xbar_.channels_[ch]->shardId(),
                  curTick() + xbar_.cfg_.frontendLatency,
                  xbar_.channels_[ch]->credits(), nullptr, index_);
    return true;
}

// --------------------------------------------------------------------
// Crossbar
// --------------------------------------------------------------------

Crossbar::Crossbar(Simulator &sim, std::string name,
                   const XBarConfig &cfg)
    : sim_(sim), name_(std::move(name)), cfg_(cfg)
{
    if (cfg_.width == 0 || cfg_.clockPeriod == 0)
        fatal("%s: zero crossbar width or clock", name_.c_str());
    if (lookahead(cfg_) == 0)
        fatal("%s: crossbar latencies must be positive",
              name_.c_str());
}

Crossbar::~Crossbar() = default;

Tick
Crossbar::lookahead(const XBarConfig &cfg)
{
    return std::min(cfg.frontendLatency, cfg.responseLatency);
}

void
Crossbar::addChannel(ResponsePort &ctrl_port, AddrRange range)
{
    if (!fronts_.empty())
        fatal("%s: add all channels before any front port",
              name_.c_str());
    for (const AddrRange &r : ranges_) {
        if (!r.disjoint(range))
            fatal("%s: range %s overlaps existing range %s",
                  name_.c_str(), range.toString().c_str(),
                  r.toString().c_str());
    }
    unsigned index = numChannels();
    auto channel = std::make_unique<ChannelPort>(
        sim_, name_ + ".ch" + std::to_string(index), *this, index);
    channel->ctrlPort().bind(ctrl_port);
    channels_.push_back(std::move(channel));
    ranges_.push_back(range);

    // Maintain the fast interleaved route: every range must use one
    // shared interleave with range i answering match i.
    if (range.numChannels() == 1 || range.intlvMatch() != index) {
        fastRoute_ = false;
    } else if (index == 0) {
        std::uint64_t gran = range.granularity();
        granShift_ = 0;
        while ((std::uint64_t(1) << granShift_) < gran)
            ++granShift_;
        chanMask_ = range.numChannels() - 1;
    } else if (ranges_[0].granularity() != range.granularity() ||
               ranges_[0].numChannels() != range.numChannels()) {
        fastRoute_ = false;
    }
}

ResponsePort &
Crossbar::addFrontPort(const std::vector<RequestorId> &ids)
{
    if (channels_.empty())
        fatal("%s: no channels to route to", name_.c_str());
    unsigned index = numFronts();
    for (RequestorId id : ids) {
        if (frontByRequestor_.size() <= id)
            frontByRequestor_.resize(id + 1, ~0u);
        if (frontByRequestor_[id] != ~0u)
            fatal("%s: requestor %u already has a front port",
                  name_.c_str(), unsigned(id));
        frontByRequestor_[id] = index;
    }
    auto front = std::make_unique<FrontPort>(
        sim_, name_ + ".front" + std::to_string(index), *this, index);
    for (auto &channel : channels_)
        channel->addFront();
    fronts_.push_back(std::move(front));
    return fronts_.back()->gate();
}

bool
Crossbar::idle() const
{
    for (const auto &front : fronts_)
        if (!front->idle())
            return false;
    for (const auto &channel : channels_)
        if (!channel->idle())
            return false;
    return true;
}

unsigned
Crossbar::routeChannel(Addr addr) const
{
    if (fastRoute_ && !channels_.empty()) {
        unsigned ch =
            static_cast<unsigned>((addr >> granShift_) & chanMask_);
        if (ch < numChannels() && ranges_[ch].contains(addr))
            return ch;
    }
    for (unsigned i = 0; i < numChannels(); ++i)
        if (ranges_[i].contains(addr))
            return i;
    fatal("%s: address %#llx maps to no channel", name_.c_str(),
          static_cast<unsigned long long>(addr));
}

unsigned
Crossbar::routeFront(RequestorId id) const
{
    if (id >= frontByRequestor_.size() || frontByRequestor_[id] == ~0u)
        fatal("%s: response for unknown requestor %u", name_.c_str(),
              unsigned(id));
    return frontByRequestor_[id];
}

Tick
Crossbar::occupancy(unsigned size) const
{
    std::uint64_t beats = (size + cfg_.width - 1) / cfg_.width;
    if (beats == 0)
        beats = 1;
    return cfg_.clockPeriod * beats;
}

void
Crossbar::postMsg(unsigned from_shard, unsigned to_shard, Tick when,
                  ShardMailbox &box, Packet *pkt, std::uint64_t arg)
{
    if (from_shard == to_shard)
        box.deliver(when, pkt, arg);
    else
        sim_.shardEngine().post(from_shard, to_shard, when, box, pkt,
                                arg);
}

} // namespace dramctrl
