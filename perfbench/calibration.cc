#include "calibration.hh"

#include <algorithm>
#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <thread>
#include <unordered_map>
#include <vector>

namespace hostbench {

namespace {

/** Events per call: about 50 ms on the nominal host. */
constexpr std::uint64_t kEvents = 200'000;

struct Packet
{
    std::uint64_t addr;
    std::uint64_t issued;
    std::vector<int> payload;
};

struct Event
{
    std::uint64_t when;
    std::uint64_t seq;
    int kind;

    bool
    operator>(const Event &o) const
    {
        return when != o.when ? when > o.when : seq > o.seq;
    }
};

double
kernelRate()
{
    enum { Inject, Schedule, Refresh };
    auto t0 = std::chrono::steady_clock::now();

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        agenda;
    std::deque<std::unique_ptr<Packet>> queue;
    std::unordered_map<std::uint64_t, std::uint64_t> open_rows;
    std::uint64_t x = 0x9e3779b97f4a7c15ULL, seq = 0, sink = 0;
    auto rnd = [&] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    for (int i = 0; i < 8; ++i)
        agenda.push({rnd() % 100, seq++, i % 3});

    for (std::uint64_t e = 0; e < kEvents; ++e) {
        const Event ev = agenda.top();
        agenda.pop();
        const std::uint64_t now = ev.when;
        if (ev.kind == Inject) {
            auto pkt = std::make_unique<Packet>();
            pkt->addr = rnd() & ((1ULL << 28) - 1);
            pkt->issued = now;
            pkt->payload.resize(4 + (pkt->addr & 7));
            if (queue.size() < 64)
                queue.push_back(std::move(pkt));
            agenda.push({now + 3 + (rnd() & 3), seq++, Inject});
        } else if (ev.kind == Schedule) {
            if (!queue.empty()) {
                std::size_t pick = 0;
                for (std::size_t i = 0; i < queue.size(); ++i) {
                    auto it = open_rows.find(queue[i]->addr >> 20 & 1023);
                    if (it != open_rows.end() &&
                        it->second == queue[i]->addr >> 10) {
                        pick = i;
                        break;
                    }
                }
                const Packet &p = *queue[pick];
                open_rows[p.addr >> 20 & 1023] = p.addr >> 10;
                sink += now - p.issued + p.payload.size();
                queue.erase(queue.begin() + pick);
            }
            agenda.push({now + 5 + (rnd() & 7), seq++, Schedule});
        } else {
            sink += open_rows.size();
            agenda.push({now + 50, seq++, Refresh});
        }
    }

    double s = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - t0)
                   .count();
    // Keep the result observable so the loop cannot be dropped.
    volatile std::uint64_t keep = sink;
    (void)keep;
    return static_cast<double>(kEvents) / s;
}

} // namespace

double
calibrationRate(unsigned threads)
{
    std::vector<double> rates(std::max(1u, threads));
    {
        // jthread joins on every exit from this scope.
        std::vector<std::jthread> others;
        for (unsigned t = 1; t < rates.size(); ++t)
            others.emplace_back([&rates, t] { rates[t] = kernelRate(); });
        rates[0] = kernelRate();
    }
    return *std::min_element(rates.begin(), rates.end());
}

} // namespace hostbench
