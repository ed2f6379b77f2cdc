#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>

#include "cpu/workload.hh"
#include "cyclesim/cycle_ctrl.hh"
#include "dram/dram_ctrl.hh"
#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "sim/shard.hh"
#include "trafficgen/dram_gen.hh"
#include "trafficgen/random_gen.hh"

namespace hostbench {

using namespace dramctrl;

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Simulated-time budget of every phase; far above what any needs. */
const Tick kBudget = fromUs(1'000'000);

/**
 * How often the warm-up checks its target. Fine enough that even the
 * self-test's tiny batches leave work for the measured phase.
 */
const Tick kWarmupPoll = fromNs(100.0);

std::uint64_t
scaled(std::uint64_t n, double scale)
{
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::llround(n * scale)));
}

std::string
statsDigest(const Simulator &sim)
{
    std::ostringstream os;
    sim.dumpStatsJson(os);
    std::uint64_t h = 14695981039346656037ULL; // FNV-1a 64
    for (unsigned char c : os.str()) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

std::uint64_t
eventsServiced(Simulator &sim)
{
    std::uint64_t n = 0;
    for (unsigned s = 0; s < sim.numShards(); ++s)
        n += sim.shardQueue(s).numEventsServiced();
    return n;
}

double
responses(const BaseGen &gen)
{
    return gen.genStats().recvResponses.value();
}

/**
 * Time the measured phase @p run. Traced batches attach one
 * LayerProfiler per shard queue (and to @p tap, if any) for exactly
 * this phase.
 */
template <typename Run>
void
measure(BatchResult &r, Simulator &sim, PortTap *tap, Run &&run)
{
    const std::uint64_t events0 = eventsServiced(sim);
    const std::uint64_t windows0 =
        sim.sharded() ? sim.shardEngine().numWindows() : 0;
    const std::uint64_t messages0 =
        sim.sharded() ? sim.shardEngine().numMessages() : 0;

    std::vector<std::unique_ptr<LayerProfiler>> profs;
    if (r.traced) {
        for (unsigned s = 0; s < sim.numShards(); ++s) {
            profs.push_back(std::make_unique<LayerProfiler>());
            sim.shardQueue(s).setProfiler(profs.back().get());
        }
        if (tap != nullptr)
            tap->setProfiler(profs.front().get());
    }

    auto t0 = Clock::now();
    run();
    r.measureSeconds = since(t0);

    for (unsigned s = 0; s < profs.size(); ++s) {
        sim.shardQueue(s).setProfiler(nullptr);
        r.split.merge(profs[s]->split());
    }
    if (tap != nullptr)
        tap->setProfiler(nullptr);

    r.events = eventsServiced(sim) - events0;
    if (sim.sharded()) {
        r.windows = sim.shardEngine().numWindows() - windows0;
        r.messages = sim.shardEngine().numMessages() - messages0;
    }
    r.digest = statsDigest(sim);
}

/** Simulated controller statistics of the measured phase. */
void
addCtrlStats(BatchResult &r, const std::vector<MemCtrlBase *> &ctrls)
{
    double bw = 0, util = 0, hit_w = 0, hits = 0, lat_n = 0, lat = 0;
    double wr_turn = 0, rdq = 0, refused = 0, offered = 0;
    double cyc_bw = 0, cyc_lat = 0, cyc_reads = 0;
    unsigned n_event = 0;
    for (MemCtrlBase *c : ctrls) {
        if (auto *e = dynamic_cast<DRAMCtrl *>(c)) {
            const DRAMCtrl::CtrlStats &s = e->ctrlStats();
            ++n_event;
            bw += e->achievedBandwidthGBs();
            util += e->busUtilisation();
            double bursts = s.readBursts.value() + s.writeBursts.value();
            hits += s.rowHitRate.value() * bursts;
            hit_w += bursts;
            double reads = s.readBursts.value() - s.servicedByWrQ.value();
            lat += s.avgMemAccLatNs.value() * reads;
            lat_n += reads;
            wr_turn += s.wrPerTurnAround.value();
            rdq += s.avgRdQLen.value();
            double retried = s.numRdRetry.value() + s.numWrRetry.value();
            refused += retried;
            offered += s.readReqs.value() + s.writeReqs.value() + retried;
        } else if (auto *cy = dynamic_cast<cyclesim::CycleDRAMCtrl *>(c)) {
            const cyclesim::CycleDRAMCtrl::CtrlStats &s = cy->ctrlStats();
            cyc_bw += cy->achievedBandwidthGBs();
            cyc_lat += s.totMemAccLat.value();
            cyc_reads += s.readReqs.value();
        }
    }
    auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    r.model["dram.bw_gbs"] = bw;
    r.model["dram.bus_util"] = ratio(util, n_event);
    r.model["dram.row_hit_rate"] = ratio(hits, hit_w);
    r.model["dram.rd_lat_ns_mean"] = ratio(lat, lat_n);
    r.model["dram.wr_per_turnaround"] = ratio(wr_turn, n_event);
    r.model["dram.avg_rdq_len"] = ratio(rdq, n_event);
    r.model["dram.refused_frac"] = ratio(refused, offered);
    r.model["cyclesim.bw_gbs"] = cyc_bw;
    r.model["cyclesim.rd_lat_ns_mean"] =
        ratio(toNs(static_cast<Tick>(cyc_lat)), cyc_reads);
}

/**
 * ch1_event_rw / ch1_cycle_rw: one DDR3-1333 channel (the paper's
 * Section III setup) fed by a DramGen over all banks, 256 B per row
 * visit (three row hits per miss), 2:1 reads to writes, offered every
 * 3 ns: faster than the channel serves, so its queues stay full.
 */
BatchResult
runChannel(harness::CtrlModel model, std::uint64_t seed, double scale,
           bool traced)
{
    const bool event = model == harness::CtrlModel::Event;
    const std::uint64_t measured =
        scaled(event ? 400'000 : 15'000, scale);
    const std::uint64_t warm = std::max<std::uint64_t>(1, measured / 10);

    BatchResult r;
    r.traced = traced;
    auto t0 = Clock::now();

    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0; // drain fully, so the run terminates
    harness::SingleChannelSystem tb(cfg, model);

    DramGenConfig gc;
    gc.org = cfg.org;
    gc.mapping = cfg.addrMapping;
    gc.strideBytes = 256;
    gc.numBanksTarget = cfg.org.banksPerRank * cfg.org.ranksPerChannel;
    gc.readPct = 67;
    gc.minITT = gc.maxITT = fromNs(3.0);
    gc.numRequests = warm + measured;
    gc.seed = seed;
    DramGen gen(tb.sim(), "gen", gc, 0);

    PortTap tap(event ? Part::DramEnqueue : Part::CycleEnqueue);
    if (traced) {
        gen.port().bind(tap.cpuSide());
        tap.memSide().bind(tb.ctrl().port());
    } else {
        gen.port().bind(tb.ctrl().port());
    }

    harness::runUntil(
        tb.sim(), [&] { return responses(gen) >= warm; }, kWarmupPoll,
        kBudget);
    const double warm_responses = responses(gen);
    tb.sim().resetStats();
    r.setupSeconds = since(t0);

    measure(r, tb.sim(), &tap, [&] {
        tb.runToCompletion([&] { return gen.done(); }, kBudget);
    });

    r.work = static_cast<std::uint64_t>(responses(gen));
    r.unanswered = gc.numRequests -
                   static_cast<std::uint64_t>(warm_responses + responses(gen));
    if (!tb.ctrl().idle())
        r.unanswered = std::max<std::uint64_t>(r.unanswered, 1);
    addCtrlStats(r, {&tb.ctrl()});
    return r;
}

/**
 * hmc64_read: the hmc_stack_64 preset behind the ShardedCrossbar, one
 * RandomGen per channel issuing reads every 16 ns (below the stack's
 * saturation point, so controller queues stay shallow), on the
 * sharded engine at workloadThreads() workers.
 */
BatchResult
runHmc(std::uint64_t seed, double scale, bool traced)
{
    const std::uint64_t measured = scaled(1'000, scale);
    const std::uint64_t warm = std::max<std::uint64_t>(1, measured / 10);

    BatchResult r;
    r.traced = traced;
    auto t0 = Clock::now();

    harness::MultiChannelConfig mcfg =
        harness::systemPresetByName("hmc_stack_64");
    mcfg.simThreads = workloadThreads("hmc64_read");
    r.threads = mcfg.simThreads;
    harness::MultiChannelSystem mc(mcfg);

    GenConfig gc;
    gc.readPct = 100;
    gc.minITT = gc.maxITT = fromNs(16.0);
    gc.numRequests = warm + measured;
    const unsigned n = mc.numChannels();
    for (unsigned i = 0; i < n; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, n, mc.totalCapacity());
        g.seed = exec::deriveSeed(seed, i);
        mc.addGen<RandomGen>(g);
    }
    auto all_responses = [&] {
        double total = 0;
        for (unsigned i = 0; i < mc.numGens(); ++i)
            total += responses(mc.gen(i));
        return total;
    };

    harness::runUntil(
        mc.sim(),
        [&] { return all_responses() >= static_cast<double>(warm * n); },
        kWarmupPoll, kBudget);
    const double warm_responses = all_responses();
    mc.sim().resetStats();
    r.setupSeconds = since(t0);

    measure(r, mc.sim(), nullptr, [&] { mc.runToCompletion(kBudget); });

    r.work = static_cast<std::uint64_t>(all_responses());
    r.unanswered = gc.numRequests * n -
                   static_cast<std::uint64_t>(warm_responses + r.work);
    if (!mc.drained())
        r.unanswered = std::max<std::uint64_t>(r.unanswered, 1);
    std::vector<MemCtrlBase *> ctrls;
    for (unsigned ch = 0; ch < n; ++ch)
        ctrls.push_back(&mc.ctrl(ch));
    addCtrlStats(r, ctrls);
    return r;
}

/**
 * cpu4_closed: the fig8/fig9 closed loop. Four timing cores with
 * private L1s, a shared L2, the plain Crossbar and one DDR3-1333
 * closed-page channel (event model), running canneal.
 */
BatchResult
runCpu(std::uint64_t seed, double scale, bool traced)
{
    const std::uint64_t measured = scaled(20'000, scale);
    const std::uint64_t warm = std::max<std::uint64_t>(1, measured / 10);

    BatchResult r;
    r.traced = traced;
    auto t0 = Clock::now();

    harness::MultiCoreConfig cfg;
    cfg.numCores = 4;
    cfg.channels = 1;
    cfg.ctrl = presets::ddr3_1333();
    cfg.ctrl.pagePolicy = PagePolicy::Closed;
    cfg.ctrl.addrMapping = AddrMapping::RoCoRaBaCh;
    cfg.model = harness::CtrlModel::Event;
    cfg.opsPerCore = warm + measured;
    cfg.seed = seed;
    harness::MultiCoreSystem sys(cfg, workloads::canneal());

    auto committed = [&] {
        std::uint64_t total = 0;
        for (unsigned i = 0; i < cfg.numCores; ++i)
            total += sys.core(i).committed();
        return total;
    };
    harness::runUntil(
        sys.sim(), [&] { return committed() >= warm * cfg.numCores; },
        kWarmupPoll, kBudget);
    sys.sim().resetStats();
    r.setupSeconds = since(t0);

    measure(r, sys.sim(), nullptr, [&] { sys.runToCompletion(kBudget); });

    bool idle = sys.l2().idle() && sys.ctrl(0).idle();
    for (unsigned i = 0; i < cfg.numCores; ++i) {
        r.work += static_cast<std::uint64_t>(
            sys.core(i).coreStats().memOps.value());
        // A core may retire a few ops past its budget in its last cycle.
        r.unanswered += cfg.opsPerCore -
                        std::min(cfg.opsPerCore, sys.core(i).committed());
        idle = idle && sys.l1(i).idle() && sys.core(i).done();
    }
    if (!idle)
        r.unanswered = std::max<std::uint64_t>(r.unanswered, 1);
    addCtrlStats(r, {&sys.ctrl(0)});
    r.model["cpu.ipc"] = sys.aggregateIPC();
    r.model["cpu.l2_miss_rate"] = sys.l2().cacheStats().missRate.value();
    r.model["cpu.l2_miss_lat_ns"] = sys.l2MissLatencyNs();
    return r;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "ch1_event_rw", "ch1_cycle_rw", "hmc64_read", "cpu4_closed"};
    return names;
}

unsigned
workloadThreads(const std::string &workload)
{
    if (workload != "hmc64_read")
        return 1;
    // The ROADMAP exit-criterion width, never more than the host has.
    unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, hw);
}

BatchResult
runBatch(const std::string &workload, std::uint64_t seed, double scale,
         bool traced)
{
    if (workload == "ch1_event_rw")
        return runChannel(harness::CtrlModel::Event, seed, scale, traced);
    if (workload == "ch1_cycle_rw")
        return runChannel(harness::CtrlModel::Cycle, seed, scale, traced);
    if (workload == "hmc64_read")
        return runHmc(seed, scale, traced);
    if (workload == "cpu4_closed")
        return runCpu(seed, scale, traced);
    fatal("unknown workload '%s'", workload.c_str());
}

} // namespace hostbench
