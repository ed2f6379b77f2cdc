#include "dram/plugin/plugin.hh"

#include <algorithm>
#include <cmath>

#include "ckpt/ckpt.hh"
#include "dram/protocol_checker.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace plugin {

namespace {

/** splitmix64 finaliser — decorrelates the packed address key. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

/** Uniform double in [0, 1) from a 64-bit hash. */
double
hash01(std::uint64_t x)
{
    return static_cast<double>(mix64(x) >> 11) * 0x1.0p-53;
}

} // namespace

void
CtrlPlugin::checkpoint(ckpt::Io &, const std::string &)
{}

// ---------------------------------------------------------------- ECC

EccPlugin::Stats::Stats(stats::Group &g)
    : wordsProcessed(&g, "wordsProcessed",
                     "ECC codewords decoded on read bursts"),
      wordsWithErrors(&g, "wordsWithErrors",
                      "codewords with at least one injected error"),
      bitErrorsInjected(&g, "bitErrorsInjected",
                        "raw bit errors injected"),
      correctedWords(&g, "correctedWords",
                     "codewords corrected (errors <= correct bits)"),
      detectedWords(&g, "detectedWords",
                    "codewords detected uncorrectable"),
      escapedWords(&g, "escapedWords",
                   "codewords with silently escaping errors"),
      wordsEncoded(&g, "wordsEncoded",
                   "ECC codewords encoded on write bursts")
{}

EccPlugin::EccPlugin(const PluginSpec &spec, const DRAMOrg &org,
                     stats::Group &parent)
    : spec_(spec), codewordBits_(spec.eccDataBits + spec.eccCheckBits),
      group_("ecc", &parent), stats_(group_)
{
    std::uint64_t burst_bits = org.burstSize() * 8;
    wordsPerBurst_ = static_cast<unsigned>(
        (burst_bits + spec.eccDataBits - 1) / spec.eccDataBits);
}

unsigned
EccPlugin::drawErrors(std::uint64_t key) const
{
    if (spec_.eccBer <= 0.0)
        return 0;
    const double p = spec_.eccBer;
    const unsigned n = codewordBits_;
    const double u = hash01(key ^ spec_.eccSeed);

    // Inverse-CDF binomial draw: walk the pmf upward from k = 0. For
    // the small bit error rates ECC is built for this terminates after
    // one or two steps.
    double pmf = std::pow(1.0 - p, static_cast<double>(n));
    double cdf = pmf;
    unsigned k = 0;
    while (u >= cdf && k < n) {
        pmf *= (static_cast<double>(n - k) /
                static_cast<double>(k + 1)) *
               (p / (1.0 - p));
        cdf += pmf;
        ++k;
        if (pmf <= 0.0)
            break;
    }
    return k;
}

void
EccPlugin::onEnqueue(const EnqueueInfo &)
{
    noteEnqueue();
}

void
EccPlugin::onBurstComplete(const BurstInfo &b)
{
    if (!b.isRead) {
        stats_.wordsEncoded += wordsPerBurst_;
        return;
    }
    // Pack the burst's DRAM coordinates into the injection key so the
    // draw is a pure function of the stored location, not of arrival
    // order: both models and any resumed run see identical errors.
    std::uint64_t base = (static_cast<std::uint64_t>(b.rank) << 58) ^
                         (static_cast<std::uint64_t>(b.bank) << 50) ^
                         (b.row << 16) ^ b.col;
    for (unsigned w = 0; w < wordsPerBurst_; ++w) {
        unsigned k = drawErrors(mix64(base) + w);
        ++stats_.wordsProcessed;
        if (k == 0)
            continue;
        ++stats_.wordsWithErrors;
        stats_.bitErrorsInjected += k;
        if (k <= spec_.eccCorrectBits)
            ++stats_.correctedWords;
        else if (k <= spec_.eccDetectBits)
            ++stats_.detectedWords;
        else
            ++stats_.escapedWords;
    }
}

// --------------------------------------------------------------- PRAC

PracPlugin::Stats::Stats(stats::Group &g)
    : actsObserved(&g, "actsObserved", "activate commands counted"),
      alertsRaised(&g, "alertsRaised",
                   "rows that reached the activation threshold"),
      mitigations(&g, "mitigations",
                  "mitigation refreshes (REFm) issued"),
      rowsTracked(&g, "rowsTracked",
                  "rows with a live activation count (at stats dump)")
{}

PracPlugin::PracPlugin(const PluginSpec &spec, const DRAMOrg &org,
                       stats::Group &parent)
    : spec_(spec), banksPerRank_(org.banksPerRank),
      counts_(org.totalBanks()), pending_(org.totalBanks(), 0),
      group_("prac", &parent), stats_(group_)
{}

void
PracPlugin::onEnqueue(const EnqueueInfo &)
{
    noteEnqueue();
}

void
PracPlugin::clearBank(unsigned flat)
{
    counts_[flat].clear();
    pending_[flat] = 0;
}

unsigned
PracPlugin::rowCount(unsigned flat, std::uint64_t row) const
{
    auto it = counts_[flat].find(row);
    return it == counts_[flat].end() ? 0 : it->second;
}

void
PracPlugin::onCommand(const CmdRecord &rec)
{
    switch (rec.cmd) {
      case DRAMCmd::Act: {
        unsigned flat = rec.rank * banksPerRank_ + rec.bank;
        ++stats_.actsObserved;
        unsigned &count = counts_[flat][rec.row];
        ++count;
        if (count == spec_.pracThreshold) {
            pending_[flat] = 1;
            ++stats_.alertsRaised;
        }
        break;
      }
      case DRAMCmd::Ref:
        // An all-bank refresh restores every row of the rank.
        for (unsigned b = 0; b < banksPerRank_; ++b)
            clearBank(rec.rank * banksPerRank_ + b);
        break;
      case DRAMCmd::RefM:
        ++stats_.mitigations;
        [[fallthrough]];
      case DRAMCmd::RefPb:
        clearBank(rec.rank * banksPerRank_ + rec.bank);
        break;
      default:
        break;
    }
}

void
PracPlugin::onStatsDump()
{
    std::uint64_t rows = 0;
    for (const auto &bank : counts_)
        rows += bank.size();
    stats_.rowsTracked = static_cast<double>(rows);
}

void
PracPlugin::checkpoint(ckpt::Io &io, const std::string &prefix)
{
    io.lanes(prefix + "pending", pending_);
    // One flat [row, count, row, count, ...] record per bank; the
    // std::map order makes it deterministic.
    for (std::size_t flat = 0; flat < counts_.size(); ++flat)
        io.pairs(prefix + "counts" + std::to_string(flat), counts_[flat]);
}

// ---------------------------------------------------- refresh manager

RefreshManager::Stats::Stats(stats::Group &g)
    : allBankRefs(&g, "allBankRefs", "all-bank REF commands observed"),
      perBankRefs(&g, "perBankRefs", "per-bank REFpb commands issued"),
      mitigationRefs(&g, "mitigationRefs",
                     "mitigation REFm commands observed")
{}

RefreshManager::RefreshManager(const PluginSpec &spec,
                               const DRAMOrg &org,
                               stats::Group &parent, bool per_bank)
    : spec_(spec), perBank_(per_bank), banksPerRank_(org.banksPerRank),
      group_(per_bank ? "refmgr_pb" : "refmgr", &parent),
      stats_(group_)
{}

Tick
RefreshManager::interval(const DRAMCtrlConfig &cfg) const
{
    Tick refi = cfg.effectiveREFI();
    if (!perBank_)
        return refi;
    // One REFpb per rank per slot, rotating: every bank refreshed
    // once per tREFI.
    return std::max<Tick>(refi / banksPerRank_, 1);
}

unsigned
RefreshManager::advance()
{
    unsigned bank = rotation_;
    rotation_ = (rotation_ + 1) % banksPerRank_;
    return bank;
}

void
RefreshManager::onEnqueue(const EnqueueInfo &)
{
    noteEnqueue();
}

void
RefreshManager::onCommand(const CmdRecord &rec)
{
    switch (rec.cmd) {
      case DRAMCmd::Ref:
        ++stats_.allBankRefs;
        break;
      case DRAMCmd::RefPb:
        ++stats_.perBankRefs;
        break;
      case DRAMCmd::RefM:
        ++stats_.mitigationRefs;
        break;
      default:
        break;
    }
}

void
RefreshManager::checkpoint(ckpt::Io &io, const std::string &prefix)
{
    io.u64(prefix + "rotation", rotation_);
}

// ---------------------------------------------------------- the chain

void
PluginChain::add(std::unique_ptr<CtrlPlugin> p)
{
    for (const auto &existing : plugins_) {
        if (std::string(existing->kind()) == p->kind())
            fatal("plugin '%s' registered twice on one controller",
                  p->kind());
    }
    if (auto *e = dynamic_cast<EccPlugin *>(p.get()))
        ecc_ = e;
    if (auto *pr = dynamic_cast<PracPlugin *>(p.get()))
        prac_ = pr;
    if (auto *rm = dynamic_cast<RefreshManager *>(p.get())) {
        if (refMgr_ != nullptr)
            fatal("two refresh manager plugins on one controller");
        refMgr_ = rm;
    }
    plugins_.push_back(std::move(p));
}

void
PluginChain::checkpoint(ckpt::Io &io)
{
    for (const auto &p : plugins_) {
        std::string prefix = std::string("plugin.") + p->kind() + ".";
        // Every plugin's state is at version 1; a change to it bumps
        // the stream's kFormatVersion instead.
        io.check(prefix + "version", 1,
                 std::string(p->kind()) + " plugin state version");
        io.u64(prefix + "enqueues", p->enqueuesSeen_);
        p->checkpoint(io, prefix);
    }
}

// ------------------------------------------------------------ helpers

PluginChain
buildChain(const DRAMCtrlConfig &cfg, stats::Group &stat_parent,
           const std::string &owner)
{
    PluginChain chain;
    for (const PluginSpec &spec : cfg.plugins) {
        if (spec.kind == "ecc") {
            chain.add(std::make_unique<EccPlugin>(spec, cfg.org,
                                                  stat_parent));
        } else if (spec.kind == "prac") {
            chain.add(std::make_unique<PracPlugin>(spec, cfg.org,
                                                   stat_parent));
        } else if (spec.kind == "refmgr" || spec.kind == "refmgr-pb") {
            chain.add(std::make_unique<RefreshManager>(
                spec, cfg.org, stat_parent, spec.kind == "refmgr-pb"));
        } else {
            fatal("%s: unknown plugin kind '%s'", owner.c_str(),
                  spec.kind.c_str());
        }
    }
    return chain;
}

void
armChecker(ProtocolChecker &checker, const DRAMCtrlConfig &cfg)
{
    if (const PluginSpec *prac = cfg.findPlugin("prac"))
        checker.setPracGuard(prac->pracThreshold, prac->tRFM);
    if (const PluginSpec *pb = cfg.findPlugin("refmgr-pb"))
        checker.setPerBankRefresh(pb->tRFCpb);
}

bool
parsePluginList(const std::string &list, DRAMCtrlConfig &cfg,
                std::string &err)
{
    for (const std::string &kind : splitCsv(list)) {
        if (kind != "ecc" && kind != "prac" && kind != "refmgr" &&
            kind != "refmgr-pb") {
            err = "unknown plugin '" + kind +
                  "' (known: ecc, prac, refmgr, refmgr-pb)";
            return false;
        }
        PluginSpec spec;
        spec.kind = kind;
        cfg.plugins.push_back(spec);
    }
    return true;
}

} // namespace plugin
} // namespace dramctrl
