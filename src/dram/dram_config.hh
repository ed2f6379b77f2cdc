/**
 * @file
 * Configuration structures for the DRAM controller model.
 *
 * These are the knobs from Table I of the paper plus the memory
 * organisation and the pruned DRAM timing set from Section II-B.
 */

#ifndef DRAMCTRL_DRAM_DRAM_CONFIG_H
#define DRAMCTRL_DRAM_DRAM_CONFIG_H

#include <string>
#include <vector>

#include "sim/types.hh"

namespace dramctrl {

/**
 * Address decoding schemes (Table I). Letters from least significant
 * field upwards read right to left: e.g. RoRaBaCoCh decodes channel from
 * the lowest bits, then column, bank, rank, row.
 *
 * Channel bits are consumed by the crossbar's interleaved ranges before
 * the packet reaches a controller, so within the controller the mapping
 * orders only {row, rank, bank, column}.
 */
enum class AddrMapping {
    RoRaBaCoCh, ///< row:rank:bank:column:channel — page hits for
                ///< sequential streams (open-page friendly)
    RoRaBaChCo, ///< row:rank:bank:channel:column — page interleaving
                ///< across channels
    RoCoRaBaCh, ///< row:column:rank:bank:channel — maximum bank
                ///< parallelism (closed-page friendly)
};

/** Row buffer management policies (Section II-C). */
enum class PagePolicy {
    Open,           ///< leave row open until a bank conflict
    OpenAdaptive,   ///< close early when only conflicting accesses queue
    Closed,         ///< auto-precharge after every column access
    ClosedAdaptive, ///< auto-precharge unless row hits are queued
};

/** Request arbitration (Section II-C). */
enum class SchedPolicy {
    Fcfs,       ///< strict arrival order
    FrFcfs,     ///< first-ready FCFS: row hits first, then oldest-ready
    FrFcfsPrio, ///< FR-FCFS with per-requestor QoS priorities — an
                ///< example of the "more elaborate schedulers" the
                ///< paper's framework is designed to host
};

const char *toString(AddrMapping m);
const char *toString(PagePolicy p);
const char *toString(SchedPolicy s);

/**
 * Inverse of the toString()s above, for CLIs and repro files.
 * @return false when @p name matches no enumerator (@p out untouched).
 */
bool addrMappingFromString(const std::string &name, AddrMapping &out);
bool pagePolicyFromString(const std::string &name, PagePolicy &out);
bool schedPolicyFromString(const std::string &name, SchedPolicy &out);

/**
 * Memory organisation of one channel (Section II-A): geometry the
 * controller decodes addresses against. The channel data-bus width is
 * deviceBusWidth x devicesPerRank bits, and one DRAM burst moves
 * burstSize() bytes.
 */
struct DRAMOrg
{
    /** Beats per burst (BL). */
    unsigned burstLength = 8;
    /** Data pins per device. */
    unsigned deviceBusWidth = 8;
    /** Devices ganged into one rank. */
    unsigned devicesPerRank = 8;
    /** Ranks sharing this channel's busses. */
    unsigned ranksPerChannel = 1;
    /** Banks in each rank. */
    unsigned banksPerRank = 8;
    /**
     * Bank groups per rank (DDR4/HBM-generation devices). 1 models the
     * ungrouped DDR3-era organisation; values > 1 split the banks into
     * groups and arm the long/short timing distinction (tCCD_L/tCCD_S,
     * tRRD_L). Banks are numbered group-minor: group(bank) = bank %
     * bankGroupsPerRank, so consecutive bank numbers alternate groups
     * and bank-interleaved streams naturally enjoy the short timings.
     */
    unsigned bankGroupsPerRank = 1;
    /**
     * Pseudochannels per physical channel (HBM-generation stacks). The
     * controller always models ONE pseudochannel; this field is
     * organisational metadata the harness uses to instantiate
     * pseudoChannels controllers per physical channel and the address
     * decoder uses to size the interleave.
     */
    unsigned pseudoChannels = 1;
    /** Row-buffer (page) size per bank across the whole rank, bytes. */
    std::uint64_t rowBufferSize = 1024;
    /** Total channel capacity in bytes. */
    std::uint64_t channelCapacity = 256ULL * 1024 * 1024;

    /** Bytes moved by one burst on this channel. */
    std::uint64_t
    burstSize() const
    {
        return std::uint64_t(burstLength) * deviceBusWidth *
               devicesPerRank / 8;
    }

    /** Column positions (bursts) per row. */
    std::uint64_t
    burstsPerRow() const
    {
        return rowBufferSize / burstSize();
    }

    /** Rows per bank implied by the capacity. */
    std::uint64_t
    rowsPerBank() const
    {
        return channelCapacity /
               (rowBufferSize * banksPerRank * ranksPerChannel);
    }

    /** Total banks across all ranks. */
    unsigned
    totalBanks() const
    {
        return banksPerRank * ranksPerChannel;
    }

    /** True when the organisation has a real bank-group structure. */
    bool
    hasBankGroups() const
    {
        return bankGroupsPerRank > 1;
    }

    /** Banks in each bank group. */
    unsigned
    banksPerGroup() const
    {
        return banksPerRank / bankGroupsPerRank;
    }

    /** Bank group of a bank number (group-minor numbering). */
    unsigned
    bankGroup(unsigned bank) const
    {
        return bank % bankGroupsPerRank;
    }

    /** Validate internal consistency; calls fatal() on user error. */
    void check() const;
};

/**
 * The pruned DRAM timing set (Section II-B, Table IV). All values in
 * ticks. tXAW generalises tFAW/tTAW: at most activationLimit activates
 * may be issued in any rolling tXAW window.
 */
struct DRAMTiming
{
    Tick tCK = fromNs(1.5);      ///< interface clock period
    Tick tBURST = fromNs(6.0);   ///< data bus occupancy of one burst
    Tick tRCD = fromNs(13.75);   ///< activate to column command
    Tick tCL = fromNs(13.75);    ///< column command to first read data
    Tick tRP = fromNs(13.75);    ///< precharge to activate
    Tick tRAS = fromNs(35.0);    ///< activate to precharge (min)
    Tick tWR = fromNs(15.0);     ///< end of write data to precharge
    Tick tWTR = fromNs(7.5);     ///< end of write data to read command
    Tick tRTW = fromNs(2.5);     ///< extra read-to-write bus turnaround
    Tick tRRD = fromNs(6.25);    ///< activate to activate, any bank
    Tick tXAW = fromNs(40.0);    ///< rolling activation window
    Tick tREFI = fromUs(7.8);    ///< refresh interval
    Tick tRFC = fromNs(160.0);   ///< refresh cycle time
    unsigned activationLimit = 4; ///< activates allowed per tXAW window
                                  ///< (0 disables the constraint)

    /**
     * Bank-group timings (DDR4/HBM generations). All default to 0 =
     * "inherit the ungrouped value", so DDR3-era presets keep their
     * exact behaviour: tCCD_L and tCCD_S fall back to tBURST, tRRD_L
     * falls back to tRRD. tRRD itself keeps its historical role as the
     * short (cross-group) activate spacing.
     */
    Tick tCCD_L = 0; ///< column-to-column, same bank group
    Tick tCCD_S = 0; ///< column-to-column, different bank group
    Tick tRRD_L = 0; ///< activate-to-activate, same bank group
    /**
     * Same-bank (per-bank) refresh cycle time (LPDDR4 tRFCpb / HBM
     * REFsb). 0 = the device has no same-bank refresh mode. Presets
     * that set it arm the checker's REFpb blackout even without a
     * per-bank refresh-manager plugin.
     */
    Tick tRFCsb = 0;

    /** Same-group column spacing; tBURST when tCCD_L is unset. */
    Tick
    tCCDLong() const
    {
        return tCCD_L ? tCCD_L : tBURST;
    }

    /** Cross-group column spacing; tBURST when tCCD_S is unset. */
    Tick
    tCCDShort() const
    {
        return tCCD_S ? tCCD_S : tBURST;
    }

    /** Same-group activate spacing; tRRD when tRRD_L is unset. */
    Tick
    tRRDLong() const
    {
        return tRRD_L ? tRRD_L : tRRD;
    }

    /** Validate internal consistency; calls fatal() on user error. */
    void check() const;
};

/**
 * One entry of a controller plugin chain (see src/dram/plugin/). The
 * kind selects the plugin; the remaining fields parameterise it and
 * are only read by the matching kind:
 *
 *  "ecc"       ECC/EDC with seeded bit-error injection (ecc* fields)
 *  "prac"      PRAC-style activation-counting RowHammer mitigation
 *              (pracThreshold, tRFM)
 *  "refmgr"    all-bank refresh manager (the baseline refresh policy,
 *              routed through the plugin)
 *  "refmgr-pb" per-bank refresh manager (tRFCpb; event model only)
 */
struct PluginSpec
{
    std::string kind;

    /** ECC: data bits per codeword. */
    unsigned eccDataBits = 64;
    /** ECC: check bits per codeword. */
    unsigned eccCheckBits = 8;
    /** ECC: errors per codeword the code corrects (e.g. SEC = 1). */
    unsigned eccCorrectBits = 1;
    /** ECC: errors per codeword the code detects (e.g. DED = 2). */
    unsigned eccDetectBits = 2;
    /** ECC: raw bit error rate injected per stored bit. */
    double eccBer = 0.0;
    /** ECC: injection seed (deterministic per address/codeword). */
    std::uint64_t eccSeed = 1;

    /** PRAC: per-row activation count that raises the alert. */
    unsigned pracThreshold = 32;
    /** PRAC: bank busy time of one mitigation refresh (tRFM). */
    Tick tRFM = fromNs(80.0);

    /** Per-bank refresh: bank busy time of one REFpb (tRFCpb). */
    Tick tRFCpb = fromNs(60.0);
};

/**
 * Full controller configuration: Table I of the paper, plus the
 * organisation and timing of the attached DRAM.
 */
struct DRAMCtrlConfig
{
    DRAMOrg org;
    DRAMTiming timing;

    /** Number of read queue entries (bursts). */
    unsigned readBufferSize = 32;
    /** Number of write queue entries (bursts). */
    unsigned writeBufferSize = 64;
    /** Fraction of the write queue that forces a switch to writes. */
    double writeHighThreshold = 0.85;
    /** Fraction below which draining stops / idle draining starts. */
    double writeLowThreshold = 0.50;
    /** Minimum bursts drained once a write switch happens. */
    unsigned minWritesPerSwitch = 16;

    SchedPolicy schedPolicy = SchedPolicy::FrFcfs;
    AddrMapping addrMapping = AddrMapping::RoRaBaCoCh;
    PagePolicy pagePolicy = PagePolicy::Open;

    /** Static controller pipeline latency (Section II-B). */
    Tick frontendLatency = fromNs(10.0);
    /** Static PHY/IO latency (Section II-B). */
    Tick backendLatency = fromNs(10.0);

    /**
     * Cap on consecutive accesses serviced from one open row before the
     * scheduler moves on (starvation guard for FR-FCFS); 0 = unlimited.
     */
    unsigned maxAccessesPerRow = 16;

    /**
     * Model precharge power-down (an extension beyond the paper, which
     * lists low-power states as future work in Section II-G). When
     * enabled, the DRAM enters power-down after powerDownDelay of bus
     * idleness with all banks precharged; the first access afterwards
     * pays tXP, and the time spent powered down feeds the power model
     * (IDD2P instead of IDD2N). Event model only, as is self-refresh
     * (CycleDRAMCtrl::unsupportedFeature()).
     */
    bool enablePowerDown = false;
    /** Idle time before entering power-down. */
    Tick powerDownDelay = fromNs(50.0);
    /** Power-down exit latency (tXP). */
    Tick tXP = fromNs(6.0);

    /**
     * Model self-refresh: after selfRefreshDelay of power-down the
     * device transitions to self-refresh (it refreshes itself, the
     * controller stops issuing REF, background current drops to IDD6)
     * and the next access pays the slower tXS exit. Requires
     * enablePowerDown.
     */
    bool enableSelfRefresh = false;
    /** Power-down time before the self-refresh transition. */
    Tick selfRefreshDelay = fromUs(1.0);
    /** Self-refresh exit latency (tXS, roughly tRFC + margin). */
    Tick tXS = fromNs(170.0);

    /**
     * QoS priorities for SchedPolicy::FrFcfsPrio, indexed by
     * RequestorId; higher wins. Requestors beyond the vector's size
     * (and everyone, under the other policies) get priority 0.
     */
    std::vector<unsigned> requestorPriorities;

    /**
     * Device temperature in Celsius (an extension along the paper's
     * closing future-work note about refresh-rate vs temperature).
     * JEDEC halves the refresh interval for each step above the
     * standard 85C rating: the effective tREFI is
     * tREFI / 2^ceil((T - 85) / 10) for T > 85, unchanged otherwise.
     */
    double temperatureC = 85.0;

    /** Effective refresh interval at the configured temperature. */
    Tick effectiveREFI() const;

    /**
     * Refresh ranks independently, staggered by tREFI/ranks, instead
     * of the paper's controller-wide refresh. Other ranks keep
     * serving while one refreshes — the standard multi-rank
     * optimisation (event model only: CycleDRAMCtrl::unsupportedFeature()).
     */
    bool perRankRefresh = false;

    /**
     * Ordered plugin chain layered onto the controller (hooks at
     * request enqueue, command issue, command completion, and stats
     * dump — see src/dram/plugin/ and docs/PLUGINS.md). Order is the
     * dispatch order. At most one entry per kind and at most one
     * refresh manager ("refmgr"/"refmgr-pb") are allowed.
     */
    std::vector<PluginSpec> plugins;

    /** First plugin of @p kind in the chain, or nullptr. */
    const PluginSpec *findPlugin(const std::string &kind) const;

    /** True when the chain contains a plugin of @p kind. */
    bool
    hasPlugin(const std::string &kind) const
    {
        return findPlugin(kind) != nullptr;
    }

    /** Validate internal consistency; calls fatal() on user error. */
    void check() const;

    /**
     * Human-readable summary of every knob (the gem5 config.ini
     * analogue), for logs and reproducibility records.
     */
    std::string describe() const;
};

} // namespace dramctrl

#endif // DRAMCTRL_DRAM_DRAM_CONFIG_H
