#include "validate/config_fuzzer.hh"

#include <algorithm>

#include "cyclesim/cycle_ctrl.hh"
#include "dram/dram_presets.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace validate {

namespace {

template <typename T, std::size_t N>
const T &
pick(Random &rng, const T (&options)[N])
{
    return options[rng.uniform(0, N - 1)];
}

} // namespace

FuzzCase
sampleCase(Random &rng, const FuzzerOptions &opts)
{
    static const char *kPresets[] = {
        "ddr3_1333", "ddr3_1600", "lpddr3_1600", "wideio_200",
        "hmc_vault",
    };

    FuzzCase fc;
    if (!opts.standards.empty()) {
        fc.presetName = opts.standards[rng.uniform(
            0, static_cast<unsigned>(opts.standards.size()) - 1)];
    } else {
        fc.presetName = pick(rng, kPresets);
    }
    fc.cfg = presets::byName(fc.presetName);
    DRAMCtrlConfig &cfg = fc.cfg;

    // Organisation: multi-rank variants keep rowsPerBank a power of
    // two because every preset capacity / geometry field already is.
    static const unsigned kRanks[] = {1, 1, 2, 4};
    cfg.org.ranksPerChannel = pick(rng, kRanks);

    // Controller knobs (Table I space).
    static const unsigned kReadBuf[] = {8, 16, 32, 64};
    static const unsigned kWriteBuf[] = {16, 32, 64, 128};
    cfg.readBufferSize = pick(rng, kReadBuf);
    cfg.writeBufferSize = pick(rng, kWriteBuf);
    static const double kHighWm[] = {0.7, 0.85, 0.9};
    static const double kLowWm[] = {0.3, 0.4, 0.5};
    cfg.writeHighThreshold = pick(rng, kHighWm);
    cfg.writeLowThreshold = pick(rng, kLowWm);
    cfg.minWritesPerSwitch = static_cast<unsigned>(rng.uniform(
        1, std::min(cfg.writeBufferSize, 18u)));

    if (opts.cycleCompatible) {
        // Strict FCFS means different things to the two models: the
        // event model serialises whole transactions analytically,
        // the cycle model still overlaps bank preparation through its
        // per-bank command queues. Both are defensible FCFS
        // controllers, but they are not each other's reference, so
        // differential runs stick to FR-FCFS (the paper's default).
        cfg.schedPolicy = SchedPolicy::FrFcfs;
    } else {
        static const SchedPolicy kSched[] = {SchedPolicy::Fcfs,
                                             SchedPolicy::FrFcfs};
        cfg.schedPolicy = pick(rng, kSched);
    }

    static const AddrMapping kMaps[] = {AddrMapping::RoRaBaCoCh,
                                        AddrMapping::RoRaBaChCo,
                                        AddrMapping::RoCoRaBaCh};
    cfg.addrMapping = pick(rng, kMaps);

    // Cycle-compatible samples draw nothing unsupportedFeature() refuses.
    auto mayUse = [&opts](auto with) {
        DRAMCtrlConfig probe;
        with(probe);
        return !opts.cycleCompatible ||
               !cyclesim::CycleDRAMCtrl::unsupportedFeature(probe);
    };
    std::vector<PagePolicy> pages;
    for (PagePolicy p : {PagePolicy::Open, PagePolicy::OpenAdaptive,
                         PagePolicy::Closed, PagePolicy::ClosedAdaptive})
        if (mayUse([p](auto &c) { c.pagePolicy = p; }))
            pages.push_back(p);
    cfg.pagePolicy = pages[rng.uniform(0, pages.size() - 1)];

    static const unsigned kMaxRow[] = {0, 4, 16};
    cfg.maxAccessesPerRow = pick(rng, kMaxRow);

    // Timing mutations that stay inside DRAMTiming::check(): the
    // activation limit (0 disables tXAW; never 1) and the refresh
    // interval (0 disables refresh; otherwise far above every preset
    // tRFC). Short tREFI values make refresh interactions frequent
    // enough to matter within a short fuzz run.
    static const unsigned kActLimit[] = {0, 2, 4};
    cfg.timing.activationLimit = pick(rng, kActLimit);

    switch (rng.uniform(0, 3)) {
      case 0: cfg.timing.tREFI = 0; break;
      case 1: cfg.timing.tREFI = fromUs(1.0); break;
      case 2: cfg.timing.tREFI = fromUs(2.0); break;
      default: break; // keep the preset value
    }

    static const double kStaticNs[] = {0.0, 5.0, 10.0, 20.0};
    cfg.frontendLatency = fromNs(pick(rng, kStaticNs));
    cfg.backendLatency = fromNs(pick(rng, kStaticNs));

    if (mayUse([](auto &c) { c.enablePowerDown = true; })) {
        cfg.enablePowerDown = rng.chance(0.3);
        if (cfg.enablePowerDown)
            cfg.enableSelfRefresh = rng.chance(0.3);
    }
    if (mayUse([](auto &c) { c.perRankRefresh = true; }))
        cfg.perRankRefresh = rng.chance(0.5);

    if (opts.withPlugins) {
        // Random plugin chain. Error rates span "never fires" to
        // "every burst is noisy"; PRAC thresholds are far below real
        // silicon so mitigations actually trigger within a short run.
        if (rng.chance(0.5)) {
            PluginSpec ecc;
            ecc.kind = "ecc";
            if (rng.chance(0.3)) {
                ecc.eccDataBits = 128;
                ecc.eccCheckBits = 16;
            }
            static const double kBer[] = {0.0, 1e-7, 1e-5, 1e-3};
            ecc.eccBer = pick(rng, kBer);
            ecc.eccSeed = rng.uniform(1, 1u << 20);
            cfg.plugins.push_back(ecc);
        }
        if (rng.chance(0.4)) {
            PluginSpec prac;
            prac.kind = "prac";
            static const unsigned kThresh[] = {4, 8, 16, 64};
            prac.pracThreshold = pick(rng, kThresh);
            cfg.plugins.push_back(prac);
        }
        // Per-bank refresh needs refresh, without stagger or low power.
        bool pbOk =
            mayUse([](auto &c) { c.plugins.push_back({"refmgr-pb"}); }) &&
            cfg.timing.tREFI != 0 && !cfg.perRankRefresh &&
            !cfg.enablePowerDown && !cfg.enableSelfRefresh;
        switch (rng.uniform(0, 3)) {
          case 0: {
            PluginSpec mgr;
            mgr.kind = "refmgr";
            cfg.plugins.push_back(mgr);
            break;
          }
          case 1:
            if (pbOk) {
                PluginSpec mgr;
                mgr.kind = "refmgr-pb";
                cfg.plugins.push_back(mgr);
            }
            break;
          default:
            break; // no refresh manager
        }
    }

    // Stimulus: window sized to stress either row locality (small) or
    // bank/rank spread (large), always inside the channel.
    StreamParams &sp = fc.stream;
    static const std::uint64_t kWindow[] = {
        1ULL << 16, 1ULL << 20, 1ULL << 22, 1ULL << 24};
    sp.windowSize = std::min<std::uint64_t>(pick(rng, kWindow),
                                            cfg.org.channelCapacity);
    static const unsigned kReadPct[] = {0, 30, 50, 70, 100};
    sp.readPct = pick(rng, kReadPct);
    sp.numRequests = opts.numRequests
                         ? opts.numRequests
                         : rng.uniform(200, 600);
    // Gap range spans back-to-back pressure to near-idle trickle.
    static const double kGapLo[] = {0.0, 2.0, 10.0};
    static const double kGapSpan[] = {5.0, 30.0, 120.0};
    double lo = pick(rng, kGapLo);
    double hi = lo + pick(rng, kGapSpan);
    sp.minITT = fromNs(lo);
    sp.maxITT = fromNs(hi);
    sp.mixedSizes = rng.chance(0.3);
    sp.blockSize = 64;
    // About one stream in eight idles once for 10-12 refresh
    // intervals, past the protocol checker's 9 x tREFI slack, so a
    // model that skips or drops idle-time refreshes fails its audit.
    // Only a few: the cycle model ticks through every idle cycle.
    if (cfg.timing.tREFI != 0 && rng.uniform(0, 7) == 0) {
        const Tick refi = cfg.effectiveREFI();
        sp.idlePause = rng.uniform(10 * refi, 12 * refi);
    }

    // A request spanning more bursts than a whole queue can never be
    // accepted (the controller fatals on it); keep every sampled
    // config able to hold the worst-case request. Streams align to
    // 16 B, so an unaligned max-size request may touch one extra
    // burst. Differential runs additionally want room for several
    // such requests: the event model buffers *bursts* where the cycle
    // model buffers *transactions*, and with multi-burst requests
    // squeezed into a tiny queue that accounting difference dominates
    // saturated throughput.
    unsigned maxReqBytes = sp.mixedSizes ? 256 : sp.blockSize;
    auto worstBursts = static_cast<unsigned>(
        maxReqBytes / cfg.org.burstSize() + 1);
    unsigned floor = opts.cycleCompatible ? 4 * worstBursts
                                          : worstBursts;
    cfg.readBufferSize = std::max(cfg.readBufferSize, floor);
    cfg.writeBufferSize = std::max(cfg.writeBufferSize, floor);

    cfg.check();
    return fc;
}

std::string
summarize(const FuzzCase &fc)
{
    const DRAMCtrlConfig &cfg = fc.cfg;
    const StreamParams &sp = fc.stream;
    std::string pause;
    if (sp.idlePause)
        pause = formatString(" pause=%.1fus", toNs(sp.idlePause) / 1e3);
    std::string plugins;
    for (const PluginSpec &ps : cfg.plugins) {
        plugins += plugins.empty() ? " plugins=" : ",";
        if (ps.kind == "ecc")
            plugins += formatString("ecc(%u+%u,ber=%g)",
                                    ps.eccDataBits, ps.eccCheckBits,
                                    ps.eccBer);
        else if (ps.kind == "prac")
            plugins += formatString("prac(t=%u)", ps.pracThreshold);
        else
            plugins += ps.kind;
    }
    return formatString(
        "%s ranks=%u map=%s page=%s sched=%s rq=%u wq=%u xaw=%u "
        "refi=%.1fus maxrow=%u | n=%llu win=%lluKiB rd%%=%u "
        "itt=[%.0f,%.0f]ns%s",
        fc.presetName.c_str(), cfg.org.ranksPerChannel,
        toString(cfg.addrMapping), toString(cfg.pagePolicy),
        toString(cfg.schedPolicy), cfg.readBufferSize,
        cfg.writeBufferSize, cfg.timing.activationLimit,
        toNs(cfg.timing.tREFI) / 1e3, cfg.maxAccessesPerRow,
        static_cast<unsigned long long>(sp.numRequests),
        static_cast<unsigned long long>(sp.windowSize >> 10),
        sp.readPct, toNs(sp.minITT), toNs(sp.maxITT),
        sp.mixedSizes ? " mixed" : "") + pause + plugins;
}

} // namespace validate
} // namespace dramctrl
