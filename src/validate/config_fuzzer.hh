/**
 * @file
 * Seeded sampling of valid controller configurations and stimulus
 * parameters for differential fuzzing.
 *
 * Each fuzz run draws one FuzzCase: a DRAMCtrlConfig (preset timing
 * set plus randomised organisation and controller knobs — queue
 * depths, page policies, address maps, ranks, activation limits,
 * drain watermarks, refresh intervals) and the StreamParams for the
 * randomised request stream. Sampling stays inside the intersection
 * both models support (the cycle comparator handles only the plain
 * Open and Closed page policies) and every sampled configuration
 * passes DRAMCtrlConfig::check() by construction.
 */

#ifndef DRAMCTRL_VALIDATE_CONFIG_FUZZER_H
#define DRAMCTRL_VALIDATE_CONFIG_FUZZER_H

#include <string>
#include <vector>

#include "dram/dram_config.hh"
#include "sim/random.hh"
#include "validate/request_stream.hh"

namespace dramctrl {
namespace validate {

/** One sampled differential-fuzz scenario. */
struct FuzzCase
{
    DRAMCtrlConfig cfg;
    StreamParams stream;
    /** Preset the timing set came from (for reports). */
    std::string presetName;
};

/** Sampling restrictions. */
struct FuzzerOptions
{
    /** Override for the per-run request count (0 keeps the sample). */
    std::uint64_t numRequests = 0;
    /**
     * Draw what the differential run compares: nothing the cycle model
     * refuses, FR-FCFS only, deep buffers. Switch off to fuzz the event
     * model alone against the checker.
     */
    bool cycleCompatible = true;
    /**
     * Also draw a random plugin chain (ECC geometry/error rate, PRAC
     * thresholds, refresh managers) for each case.
     */
    bool withPlugins = false;
    /**
     * Preset names to draw the base timing set from. Empty keeps the
     * historical pool (the five DDR3-era presets), so old seeds keep
     * reproducing the same cases; fuzz_cli --standards widens it to
     * the bank-grouped DDR4/LPDDR4/HBM standards.
     */
    std::vector<std::string> standards;
};

/** Draw one valid scenario from @p rng. */
FuzzCase sampleCase(Random &rng, const FuzzerOptions &opts = {});

/** One-line summary of a sampled case, for logs. */
std::string summarize(const FuzzCase &fc);

} // namespace validate
} // namespace dramctrl

#endif // DRAMCTRL_VALIDATE_CONFIG_FUZZER_H
