/**
 * @file
 * Design-space sweeps: a config-grid x seed x traffic-pattern product
 * expanded into independent simulation jobs, one result row per run.
 *
 * This is the paper's whole use case (Section IV: fast models exist
 * to make full design-space exploration tractable) packaged as a
 * library: describe the axes once, expand the cartesian product, run
 * every point as a shared-nothing job — serially or on the batch
 * engine — and emit one CSV/JSONL row per run. Rows contain only
 * simulated quantities (no wall-clock), so a sweep's output file is
 * byte-identical however many worker threads produced it.
 */

#ifndef DRAMCTRL_EXEC_SWEEP_H
#define DRAMCTRL_EXEC_SWEEP_H

#include <cstdint>
#include <string>
#include <vector>

#include "dram/dram_config.hh"
#include "harness/testbench.hh"

namespace dramctrl {
namespace exec {

/** The axes of one sweep; the grid is their cartesian product. */
struct SweepSpec
{
    std::vector<std::string> presets{"ddr3_1333"};
    /** Traffic patterns: "linear", "random", "dram" or "trace". */
    std::vector<std::string> patterns{"random"};
    std::vector<PagePolicy> pages{PagePolicy::Open};
    std::vector<AddrMapping> mappings{AddrMapping::RoRaBaCoCh};
    std::vector<unsigned> readPcts{100};
    std::vector<double> ittNs{6.0};
    std::vector<harness::CtrlModel> models{harness::CtrlModel::Event};
    /** Seeds per grid point, derived from (masterSeed, run index). */
    unsigned numSeeds = 1;
    std::uint64_t masterSeed = 1;

    /** Fixed per-run stimulus parameters. */
    std::uint64_t requests = 5000;
    std::uint64_t strideBytes = 256;
    unsigned banks = 4;

    /**
     * Controller plugin chain applied to every point, as the csv list
     * parsePluginList() accepts ("ecc,prac,refmgr"). Empty = none.
     */
    std::string plugins;

    /**
     * Channels per run (1 = classic single-channel point). With more
     * than one channel every point builds a sharded multi-channel
     * system — one controller and one generator per channel, requests
     * split evenly — and @ref simThreads worker threads execute it.
     * Rows are byte-identical for every simThreads value, so the two
     * parallelism axes (outer --jobs, inner sim threads) compose
     * freely. Multi-channel points support the linear/random patterns
     * and no warm-up phase.
     */
    unsigned channels = 1;
    /** Worker threads inside each run (0 = one per core). */
    unsigned simThreads = 1;

    /**
     * Warm-up requests injected (from a seed-independent stream)
     * before statistics reset and the measured @ref requests begin.
     * 0 disables warm-up. With warm-up on, a sweep can run in
     * warm-start mode: one warm-up per config group, checkpointed,
     * with the measured phases fanned out from the shared snapshot
     * (see captureWarmupSnapshot / runMeasuredFromSnapshot).
     */
    std::uint64_t warmupRequests = 0;

    /**
     * Stimulus file for the "trace" pattern (text or .dtrc, sniffed
     * by content). Single-channel points stream it through one
     * player; multi-channel points add one player per recorded
     * source id, fanning the file out across the channels. The trace
     * pattern ignores seeds and supports no warm-up.
     */
    std::string tracePath;
    /** Stretch (>1) / compress (<1) replayed inter-request gaps. */
    double traceScale = 1.0;

    /**
     * When non-empty, every run also records the request stream it
     * actually injected to "<prefix><index>.dtrc" — any synthetic
     * sweep becomes a reusable trace corpus. Points run in parallel
     * write distinct files, so capture composes with --jobs.
     */
    std::string traceCapturePrefix;
};

/** One expanded grid point: a fully specified run. */
struct SweepPoint
{
    std::size_t index = 0; ///< position in the expanded grid
    std::string preset;
    std::string pattern;
    PagePolicy page = PagePolicy::Open;
    AddrMapping mapping = AddrMapping::RoRaBaCoCh;
    unsigned readPct = 100;
    double ittNs = 6.0;
    harness::CtrlModel model = harness::CtrlModel::Event;
    unsigned seedIndex = 0;
    /** Generator seed: deriveSeed(masterSeed, index). */
    std::uint64_t seed = 0;
};

/** Simulated results of one run (deliberately no host timings). */
struct SweepRow
{
    SweepPoint point;
    double simulatedUs = 0;
    double bandwidthGBs = 0;
    double avgReadLatencyNs = 0;
    double busUtil = 0;
    /** Event model only; 0 for the cycle model. */
    double rowHitRate = 0;
    std::uint64_t responses = 0;
};

/**
 * Expand @p spec into the full grid, seeds varying fastest, in a
 * fixed documented order (preset, pattern, page, mapping, read-pct,
 * itt, model, seed — rightmost fastest). Point i is independent of
 * every other point, so any subset can run in any order.
 */
std::vector<SweepPoint> expandGrid(const SweepSpec &spec);

/**
 * Simulate one point to completion. Deterministic: depends only on
 * @p point and @p spec, never on threads or timing. fatal()s on
 * unknown preset/pattern names (validate the spec up front with
 * checkSpec() for a softer failure mode).
 */
SweepRow runSweepPoint(const SweepPoint &point, const SweepSpec &spec);

/**
 * Validate @p spec without running anything: preset names, the sweep
 * axes, warm-up and plugin combinations, every pattern and read
 * percentage through harness::checkStimulus(), and every cycle-model
 * point through cyclesim::CycleDRAMCtrl::unsupportedFeature().
 * @return false and fill @p err with the first offending name.
 */
bool checkSpec(const SweepSpec &spec, std::string *err);

/**
 * Config-group index of @p point: all seeds of one configuration share
 * a group (seeds vary fastest in expandGrid), and therefore share one
 * warm-up phase in warm-start mode.
 */
std::size_t configGroupOf(const SweepPoint &point, const SweepSpec &spec);

/**
 * Run the warm-up phase for @p point's config group and return the
 * post-warm-up, post-stats-reset checkpoint as a string. The warm-up
 * stimulus depends only on the configuration (not on point.seed), so
 * any point of the group produces the same snapshot. Requires
 * spec.warmupRequests > 0.
 */
std::string captureWarmupSnapshot(const SweepPoint &point,
                                  const SweepSpec &spec);

/**
 * Complete @p point from a warm-up snapshot captured by
 * captureWarmupSnapshot() for the same config group: rebuild the
 * system, restore the snapshot, inject the measured requests with the
 * point's own seed. The row is byte-identical to what runSweepPoint()
 * produces for the same point with the same spec (which runs the
 * warm-up inline).
 */
SweepRow runMeasuredFromSnapshot(const SweepPoint &point,
                                 const SweepSpec &spec,
                                 const std::string &snapshot);

/** Header line matching toCsv()'s columns (no trailing newline). */
std::string csvHeader();

/** One fixed-precision CSV row (no trailing newline). */
std::string toCsv(const SweepRow &row);

/** One JSONL object (no trailing newline). */
std::string toJsonl(const SweepRow &row);

} // namespace exec
} // namespace dramctrl

#endif // DRAMCTRL_EXEC_SWEEP_H
