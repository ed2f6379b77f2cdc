/**
 * @file
 * The benchmark's workloads. Each batch builds its system from
 * scratch, warms it up, resets the statistics and then runs a fixed
 * amount of work to completion. Only the measured phase is traced.
 */

#ifndef HOSTBENCH_WORKLOADS_HH
#define HOSTBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layers.hh"

namespace hostbench {

/** What one batch produced. */
struct BatchResult
{
    /** Host seconds to build the system and run its warm-up. */
    double setupSeconds = 0;
    /** Host seconds of the measured phase. */
    double measureSeconds = 0;
    /** Requests (or core memory ops) completed in the measured phase. */
    std::uint64_t work = 0;
    /** Requests the batch asked for that never got a response. */
    std::uint64_t unanswered = 0;
    /** FNV-1a of the full statistics JSON after the measured phase. */
    std::string digest;

    /**
     * Counted over the measured phase, deterministic for a given seed:
     * events serviced, sharded-engine windows, cross-shard messages.
     */
    std::uint64_t events = 0;
    std::uint64_t windows = 0;
    std::uint64_t messages = 0;
    /** Worker threads executing events (1 unless sharded). */
    unsigned threads = 1;

    /** Simulated statistics and public-stat ratios, by metric name. */
    std::map<std::string, double> model;

    /** Whether the measured phase was traced, and if so its split. */
    bool traced = false;
    HostSplit split;
};

/** Every workload, in the order BENCHMARK.json lists them. */
const std::vector<std::string> &workloadNames();

/** Threads a batch of @p workload executes events on. */
unsigned workloadThreads(const std::string &workload);

/**
 * Run one batch of @p workload. @p scale multiplies the amount of work
 * (1 for measurement, small for the self-test).
 */
BatchResult runBatch(const std::string &workload, std::uint64_t seed,
                     double scale, bool traced);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_HH
