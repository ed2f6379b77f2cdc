/**
 * @file
 * Differential event-vs-cycle runner.
 *
 * Feeds one materialised request stream to the event-based DRAMCtrl
 * and the cycle-by-cycle CycleDRAMCtrl under an identical
 * configuration, with an online ProtocolChecker auditing each model's
 * implied command stream as it is issued. A run passes when
 *
 *  - both models answer every request exactly once (no lost, spurious,
 *    duplicated or mismatched responses) and drain before the timeout;
 *  - neither command stream violates a JEDEC constraint;
 *  - the event model's command stream satisfies the write-queue
 *    conservation law (RD commands == read bursts minus the reads
 *    serviced by write-queue forwarding);
 *  - aggregate completion time (inverse bandwidth) and mean read
 *    latency agree between the models within configured tolerances.
 *
 * The two models are *supposed* to differ in exact timing — the event
 * model is the paper's fast abstraction, the cycle model the
 * DRAMSim2-style reference — so the timing checks are tolerance bands,
 * not equality; the functional and protocol checks are exact.
 */

#ifndef DRAMCTRL_VALIDATE_DIFF_RUNNER_H
#define DRAMCTRL_VALIDATE_DIFF_RUNNER_H

#include <cstdint>
#include <string>
#include <vector>

#include "dram/protocol_checker.hh"
#include "validate/config_fuzzer.hh"
#include "validate/request_stream.hh"

namespace dramctrl {
namespace validate {

/** Knobs of one differential run. */
struct DiffOptions
{
    /**
     * Relative completion-time (inverse bandwidth) tolerance. The
     * default is wide because the models legitimately disagree on
     * saturated throughput: the cycle model ceil-quantises every
     * timing parameter to its clock (up to +11% each on slow-clock
     * parts like WideIO), and queue capacities are accounted in
     * bursts (event) vs transactions (cycle). Genuine scheduling bugs
     * show up as 2x-plus gaps, timeouts, or protocol violations, all
     * far outside this band.
     */
    double bandwidthRelTol = 0.5;
    /**
     * Absolute completion-time slack added to the relative band, ns.
     * Shrunk streams are a handful of requests, where fixed
     * pipeline-latency differences between the models dominate and a
     * purely relative check would flag every short run.
     */
    double bandwidthAbsSlackNs = 1500.0;
    /** Relative mean-read-latency tolerance. */
    double latencyRelTol = 0.60;
    /** Absolute latency slack added to the relative band, ns. */
    double latencyAbsSlackNs = 60.0;
    /**
     * Completion-to-injection-span ratio above which a model counts
     * as bandwidth-bound. When either model saturates, queueing
     * delay — not service latency — dominates mean read latency, and
     * near-identical models can legitimately differ by integer
     * factors there; the latency comparison is skipped (the
     * completion-time comparison still covers saturated throughput).
     */
    double saturationRatio = 1.25;
    /**
     * Second congestion guard: skip the latency band when either
     * model's mean read latency exceeds this multiple of the
     * zero-load latency (static latencies + tRP + tRCD + tCL +
     * tBURST). Bursty arrivals can congest queues — where latency is
     * hypersensitive to small throughput differences — without
     * stretching overall completion past saturationRatio.
     */
    double congestionFactor = 5.0;
    /** Give up (and fail) after this much simulated time. */
    Tick maxTicks = fromUs(50000.0);
    /**
     * Test-only fault injection: scale the event model's internal
     * tRCD by this factor after construction (see
     * DRAMCtrl::testScaleTRCD). 1.0 = no fault. The protocol checker
     * keeps the unscaled timing, so factors < 1 must be caught.
     */
    double injectTRCDScale = 1.0;
    /**
     * Test-only fault injection: make the event model skip the PRAC
     * mitigation refresh a pending alert demands (see
     * DRAMCtrl::testSkipPracMitigation). The armed checker's "prac"
     * rule must flag the unmitigated ACT.
     */
    bool injectPracSkip = false;
    /**
     * Test-only fault injection: scale the event model's per-bank
     * refresh blackout (tRFCpb) by this factor. Factors < 1 shrink the
     * blackout under what the checker enforces, so following ACTs must
     * trip the "tRFCpb" rule. 1.0 = no fault.
     */
    double injectTRFCpbScale = 1.0;
    /**
     * Test-only fault injection: the event model silently skips every
     * per-bank refresh of this flat bank index, starving it past the
     * per-bank tREFI deadline. ~0u = no fault.
     */
    unsigned injectRefPbStallFlat = ~0u;
    /** Audit command streams with the online ProtocolChecker. */
    bool audit = true;
    /** Also run the cycle model (off = event model + checker only). */
    bool runCycle = true;
};

/** What one model did with the stream. */
struct ModelResult
{
    bool completed = false;
    /**
     * End of the last data burst: the latest RD or WR launch plus tCL
     * and tBURST (the end of the run when no column command issued).
     */
    Tick completionTick = 0;
    std::uint64_t responses = 0;
    std::uint64_t spurious = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t mismatched = 0;
    std::uint64_t unanswered = 0;
    double avgReadLatencyNs = 0.0;
    std::uint64_t readResponses = 0;

    std::uint64_t protocolViolations = 0;
    /** First few violations, pre-formatted for reports. */
    std::vector<std::string> violationSamples;

    /** Commands seen on the (logged) command bus. */
    std::uint64_t actCmds = 0;
    std::uint64_t rdCmds = 0;
    std::uint64_t wrCmds = 0;

    /** Event model only: read bursts serviced from the write queue. */
    std::uint64_t servicedByWrQ = 0;
    std::uint64_t readBursts = 0;

    /** ECC plugin counters (all zero when no ecc plugin is armed). */
    bool eccArmed = false;
    unsigned eccWordsPerBurst = 0;
    std::uint64_t eccWordsProcessed = 0;
    std::uint64_t eccWordsWithErrors = 0;
    std::uint64_t eccCorrected = 0;
    std::uint64_t eccDetected = 0;
    std::uint64_t eccEscaped = 0;
};

/** Verdict of one differential run. */
struct DiffResult
{
    bool pass = true;
    /** Human-readable reasons, empty on pass. */
    std::vector<std::string> failures;

    ModelResult event;
    ModelResult cycle;

    std::string describe() const;
};

/**
 * Append @p model's functional failures to @p dr: a timeout, a
 * response count other than the stream's length, spurious, duplicate
 * or mismatched responses, protocol violations.
 */
void checkFunctional(const char *model, const ModelResult &mr,
                     const RequestStream &stream, DiffResult &dr);

/**
 * Run @p fc.stream (materialised from @p streamSeed) through both
 * models and compare. Deterministic for fixed inputs.
 */
DiffResult runDiff(const FuzzCase &fc, std::uint64_t streamSeed,
                   const DiffOptions &opts = {});

/** Run a pre-materialised stream (the shrinker's entry point). */
DiffResult runDiffStream(const FuzzCase &fc,
                         const RequestStream &stream,
                         const DiffOptions &opts = {});

} // namespace validate
} // namespace dramctrl

#endif // DRAMCTRL_VALIDATE_DIFF_RUNNER_H
