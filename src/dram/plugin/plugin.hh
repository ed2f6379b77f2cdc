/**
 * @file
 * Controller plugin chain.
 *
 * A CtrlPlugin layers an orthogonal concern — ECC, RowHammer
 * mitigation, refresh management — onto a DRAM controller without
 * forking the controller itself (the decomposition argued by
 * Ramulator 2; see docs/PLUGINS.md). Plugins are registered as an
 * ordered chain built from DRAMCtrlConfig::plugins and receive hooks
 * from both controller models at:
 *
 *  - request enqueue     (onEnqueue, when a packet is accepted)
 *  - command issue       (onCommand, every ACT/PRE/RD/WR/REF/... the
 *                         controller launches, in emission order)
 *  - command completion  (onBurstComplete, when a column burst's data
 *                         transfer finishes)
 *  - stats dump          (onStatsDump, before the stats tree prints)
 *
 * Each plugin owns a stats::Group child of the controller's group, so
 * its counters flow into stats dumps, the golden corpus, the metrics
 * registry and checkpoints like any controller statistic. Non-stat
 * plugin state checkpoints through PluginChain::checkpoint() inside the
 * controller's section, under "plugin.<kind>.*" keys with a per-plugin
 * version tag.
 *
 * Plugins are passive observers except where a controller explicitly
 * consults them: PracPlugin::mitigationPending() gates activates (the
 * controller issues a DRAMCmd::RefM first) and a per-bank
 * RefreshManager replaces the all-bank refresh schedule in the event
 * model.
 */

#ifndef DRAMCTRL_DRAM_PLUGIN_PLUGIN_H
#define DRAMCTRL_DRAM_PLUGIN_PLUGIN_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dram/cmd_log.hh"
#include "dram/dram_config.hh"
#include "sim/types.hh"
#include "stats/stats.hh"

namespace dramctrl {

namespace ckpt {
class Io;
} // namespace ckpt

class ProtocolChecker;

namespace plugin {

/** Request-enqueue hook payload. */
struct EnqueueInfo
{
    bool isRead = true;
    Addr addr = 0;
    unsigned size = 0;
    Tick tick = 0;
};

/** Column-burst completion hook payload. */
struct BurstInfo
{
    bool isRead = true;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t col = 0;
    /** Tick the burst's data transfer completes. */
    Tick doneTick = 0;
};

class CtrlPlugin
{
  public:
    virtual ~CtrlPlugin() = default;

    CtrlPlugin(const CtrlPlugin &) = delete;
    CtrlPlugin &operator=(const CtrlPlugin &) = delete;

    /** Stable kind string; matches PluginSpec::kind. */
    virtual const char *kind() const = 0;

    virtual void onEnqueue(const EnqueueInfo &) {}
    virtual void onCommand(const CmdRecord &) {}
    virtual void onBurstComplete(const BurstInfo &) {}
    virtual void onStatsDump() {}

    /**
     * Name non-stat state to @p io under @p prefix ("plugin.<kind>."),
     * inside the controller's section. Statistics live in the stats
     * tree and checkpoint there; only extra state (counter tables,
     * rotation indices, ...) goes here.
     */
    virtual void checkpoint(ckpt::Io &io, const std::string &prefix);

    /** Requests accepted while this plugin was attached. */
    std::uint64_t enqueuesSeen() const { return enqueuesSeen_; }

  protected:
    CtrlPlugin() = default;

    /** Derived onEnqueue() overrides should call through. */
    void noteEnqueue() { ++enqueuesSeen_; }

  private:
    std::uint64_t enqueuesSeen_ = 0;

    friend class PluginChain;
};

/**
 * ECC/EDC with seeded bit-error injection.
 *
 * Every read burst is split into codewords of dataBits + checkBits
 * bits. For each codeword a deterministic hash of (seed, rank, bank,
 * row, col, codeword index) drives an inverse-CDF binomial draw of the
 * number of injected bit errors at the configured raw bit error rate;
 * the code then corrects up to eccCorrectBits errors, detects up to
 * eccDetectBits, and anything beyond escapes silently. The draw
 * depends only on the codeword's address, never on arrival order, so
 * the counters are deterministic per model and checkpoint-stable.
 *
 * Conservation law (checked by the differential runner and the
 * property test): wordsWithErrors == corrected + detected + escaped,
 * and wordsProcessed == read bursts from DRAM x words per burst.
 */
class EccPlugin : public CtrlPlugin
{
  public:
    EccPlugin(const PluginSpec &spec, const DRAMOrg &org,
              stats::Group &parent);

    const char *kind() const override { return "ecc"; }

    void onEnqueue(const EnqueueInfo &e) override;
    void onBurstComplete(const BurstInfo &b) override;

    unsigned codewordBits() const { return codewordBits_; }
    unsigned wordsPerBurst() const { return wordsPerBurst_; }

    std::uint64_t wordsProcessed() const
    {
        return static_cast<std::uint64_t>(stats_.wordsProcessed.value());
    }
    std::uint64_t wordsWithErrors() const
    {
        return static_cast<std::uint64_t>(stats_.wordsWithErrors.value());
    }
    std::uint64_t correctedWords() const
    {
        return static_cast<std::uint64_t>(stats_.correctedWords.value());
    }
    std::uint64_t detectedWords() const
    {
        return static_cast<std::uint64_t>(stats_.detectedWords.value());
    }
    std::uint64_t escapedWords() const
    {
        return static_cast<std::uint64_t>(stats_.escapedWords.value());
    }
    std::uint64_t bitErrorsInjected() const
    {
        return static_cast<std::uint64_t>(
            stats_.bitErrorsInjected.value());
    }

  private:
    /** Injected bit errors for one codeword (inverse binomial CDF). */
    unsigned drawErrors(std::uint64_t key) const;

    PluginSpec spec_;
    unsigned codewordBits_;
    unsigned wordsPerBurst_;

    stats::Group group_;
    struct Stats
    {
        explicit Stats(stats::Group &g);
        stats::Scalar wordsProcessed;
        stats::Scalar wordsWithErrors;
        stats::Scalar bitErrorsInjected;
        stats::Scalar correctedWords;
        stats::Scalar detectedWords;
        stats::Scalar escapedWords;
        stats::Scalar wordsEncoded;
    } stats_;
};

/**
 * PRAC-style activation-counting RowHammer mitigation.
 *
 * Counts ACTs per (bank, row). When a row's count reaches the
 * configured threshold the bank raises an alert; the owning controller
 * must issue a DRAMCmd::RefM mitigation refresh to that bank before
 * its next ACT (the checker enforces exactly this deadline). Any
 * refresh command covering a bank — REF, REFpb or REFm — resets that
 * bank's counters and alert, which both bounds the tracking tables and
 * models the victim rows being restored.
 */
class PracPlugin : public CtrlPlugin
{
  public:
    PracPlugin(const PluginSpec &spec, const DRAMOrg &org,
               stats::Group &parent);

    const char *kind() const override { return "prac"; }

    void onEnqueue(const EnqueueInfo &e) override;
    void onCommand(const CmdRecord &rec) override;
    void onStatsDump() override;

    /** The controller must mitigate before the next ACT to @p flat. */
    bool
    mitigationPending(unsigned flat) const
    {
        return pending_[flat] != 0;
    }

    unsigned threshold() const { return spec_.pracThreshold; }
    Tick tRFM() const { return spec_.tRFM; }

    /** Current ACT count of (flat bank, row); 0 when untracked. */
    unsigned rowCount(unsigned flat, std::uint64_t row) const;

    std::uint64_t alertsRaised() const
    {
        return static_cast<std::uint64_t>(stats_.alertsRaised.value());
    }
    std::uint64_t mitigations() const
    {
        return static_cast<std::uint64_t>(stats_.mitigations.value());
    }

    void checkpoint(ckpt::Io &io, const std::string &prefix) override;

  private:
    void clearBank(unsigned flat);

    PluginSpec spec_;
    unsigned banksPerRank_;

    /** Per flat bank: ACT count per row (ordered for checkpoints). */
    std::vector<std::map<std::uint64_t, unsigned>> counts_;
    /** Per flat bank: alert raised, mitigation outstanding. */
    std::vector<std::uint8_t> pending_;

    stats::Group group_;
    struct Stats
    {
        explicit Stats(stats::Group &g);
        stats::Scalar actsObserved;
        stats::Scalar alertsRaised;
        stats::Scalar mitigations;
        stats::Scalar rowsTracked;
    } stats_;
};

/**
 * Pluggable refresh manager: the all-bank baseline policy routed
 * through a plugin ("refmgr"), or per-bank rotating refresh
 * ("refmgr-pb", event model only). The controller consults interval()
 * for its refresh schedule; per-bank mode additionally rotates
 * advance() through the banks, issuing DRAMCmd::RefPb to one bank per
 * rank each interval so every bank is refreshed once per tREFI.
 */
class RefreshManager : public CtrlPlugin
{
  public:
    RefreshManager(const PluginSpec &spec, const DRAMOrg &org,
                   stats::Group &parent, bool per_bank);

    const char *kind() const override
    {
        return perBank_ ? "refmgr-pb" : "refmgr";
    }

    bool perBank() const { return perBank_; }
    Tick tRFCpb() const { return spec_.tRFCpb; }

    /** Spacing of refresh events under this manager. */
    Tick interval(const DRAMCtrlConfig &cfg) const;

    /** Bank index the next per-bank refresh targets. */
    unsigned nextBank() const { return rotation_; }

    /** Consume the current rotation slot and move to the next bank. */
    unsigned advance();

    void onEnqueue(const EnqueueInfo &e) override;
    void onCommand(const CmdRecord &rec) override;

    void checkpoint(ckpt::Io &io, const std::string &prefix) override;

  private:
    PluginSpec spec_;
    bool perBank_;
    unsigned banksPerRank_;
    unsigned rotation_ = 0;

    stats::Group group_;
    struct Stats
    {
        explicit Stats(stats::Group &g);
        stats::Scalar allBankRefs;
        stats::Scalar perBankRefs;
        stats::Scalar mitigationRefs;
    } stats_;
};

/**
 * The ordered plugin chain a controller owns. Dispatch order is
 * registration order. Movable, not copyable.
 */
class PluginChain
{
  public:
    PluginChain() = default;
    PluginChain(PluginChain &&) = default;
    PluginChain &operator=(PluginChain &&) = default;

    /** Append @p p; fatal() on a duplicate kind. */
    void add(std::unique_ptr<CtrlPlugin> p);

    bool empty() const { return plugins_.empty(); }
    std::size_t size() const { return plugins_.size(); }

    const std::vector<std::unique_ptr<CtrlPlugin>> &
    plugins() const
    {
        return plugins_;
    }

    void
    onEnqueue(const EnqueueInfo &e)
    {
        for (auto &p : plugins_)
            p->onEnqueue(e);
    }

    void
    onCommand(const CmdRecord &rec)
    {
        for (auto &p : plugins_)
            p->onCommand(rec);
    }

    void
    onBurstComplete(const BurstInfo &b)
    {
        for (auto &p : plugins_)
            p->onBurstComplete(b);
    }

    void
    onStatsDump()
    {
        for (auto &p : plugins_)
            p->onStatsDump();
    }

    /** Typed accessors; nullptr when the kind is not in the chain. */
    EccPlugin *ecc() const { return ecc_; }
    PracPlugin *prac() const { return prac_; }
    RefreshManager *refreshManager() const { return refMgr_; }

    /**
     * Name every plugin's state to @p io, inside the controller's
     * section, under "plugin.<kind>.*" keys plus a per-plugin version
     * tag that a restore checks.
     */
    void checkpoint(ckpt::Io &io);

  private:
    std::vector<std::unique_ptr<CtrlPlugin>> plugins_;
    EccPlugin *ecc_ = nullptr;
    PracPlugin *prac_ = nullptr;
    RefreshManager *refMgr_ = nullptr;
};

/**
 * Build the chain cfg.plugins describes, parenting plugin statistics
 * under @p stat_parent. An unknown kind is a fatal() naming @p owner.
 */
PluginChain buildChain(const DRAMCtrlConfig &cfg, stats::Group &stat_parent,
                       const std::string &owner);

/**
 * Arm @p checker with the plugin-derived invariants of @p cfg: the
 * PRAC mitigation deadline and the per-bank refresh timing. No-op for
 * a plugin-free config.
 */
void armChecker(ProtocolChecker &checker, const DRAMCtrlConfig &cfg);

/**
 * Parse a comma-separated plugin list ("ecc,prac,refmgr") into
 * cfg.plugins (appending specs with default parameters).
 * @return false with @p err set on an unknown kind.
 */
bool parsePluginList(const std::string &list, DRAMCtrlConfig &cfg,
                     std::string &err);

} // namespace plugin
} // namespace dramctrl

#endif // DRAMCTRL_DRAM_PLUGIN_PLUGIN_H
