#include "validate/diff_runner.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "cyclesim/cycle_ctrl.hh"
#include "dram/cmd_log.hh"
#include "dram/dram_ctrl.hh"
#include "dram/plugin/plugin.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"
#include "trafficgen/trace.hh"

namespace dramctrl {
namespace validate {

namespace {

/**
 * Sink interposer: counts commands by kind and keeps the launch of the
 * last column command, then hands the record to the online checker.
 */
class CountingSink : public CmdSink
{
  public:
    explicit CountingSink(ProtocolChecker *checker)
        : checker_(checker)
    {}

    void
    onCmdRecord(const CmdRecord &rec) override
    {
        switch (rec.cmd) {
          case DRAMCmd::Act: ++acts_; break;
          case DRAMCmd::Rd: ++rds_; break;
          case DRAMCmd::Wr: ++wrs_; break;
          default: break;
        }
        if (rec.cmd == DRAMCmd::Rd || rec.cmd == DRAMCmd::Wr)
            lastColumn_ = std::max(lastColumn_, rec.tick);
        if (checker_)
            checker_->onCmdRecord(rec);
    }

    std::uint64_t acts() const { return acts_; }
    std::uint64_t rds() const { return rds_; }
    std::uint64_t wrs() const { return wrs_; }
    /** Launch tick of the latest RD or WR seen. */
    Tick lastColumn() const { return lastColumn_; }

  private:
    ProtocolChecker *checker_;
    std::uint64_t acts_ = 0;
    std::uint64_t rds_ = 0;
    std::uint64_t wrs_ = 0;
    Tick lastColumn_ = 0;
};

template <typename CtrlT>
ModelResult
runModel(const FuzzCase &fc, const RequestStream &stream,
         const DiffOptions &opts, bool isEvent)
{
    ModelResult mr;

    Simulator sim;
    AddrRange range(0, fc.cfg.org.channelCapacity);
    CtrlT ctrl(sim, "mem_ctrl", fc.cfg, range);

    ProtocolChecker checker(fc.cfg.org, fc.cfg.timing);
    plugin::armChecker(checker, fc.cfg);
    CountingSink sink(opts.audit ? &checker : nullptr);
    CmdLogger logger;
    logger.setMaxRecords(0); // pure streaming: the sink sees it all
    logger.setSink(&sink);
    ctrl.setCmdLogger(&logger);

    if constexpr (std::is_same_v<CtrlT, DRAMCtrl>) {
        if (isEvent && opts.injectTRCDScale != 1.0)
            ctrl.testScaleTRCD(opts.injectTRCDScale);
        if (isEvent && opts.injectPracSkip)
            ctrl.testSkipPracMitigation();
        if (isEvent && opts.injectTRFCpbScale != 1.0)
            ctrl.testScaleTRFCpb(opts.injectTRFCpbScale);
        if (isEvent && opts.injectRefPbStallFlat != ~0u)
            ctrl.testStallPerBankRefresh(opts.injectRefPbStallFlat);
    }

    // Replayed as an intent schedule: a stall slips what follows.
    TracePlayer player(sim, "player", stream, 0);
    ExactlyOnceCheck check(stream);
    player.port().bind(check.cpuSidePort());
    check.memSidePort().bind(ctrl.port());
    auto answered = [&] {
        return player.done() && check.outstanding() == 0;
    };

    Tick end = harness::runUntil(
        sim,
        [&] {
            checker.drainUpTo(sim.curTick());
            return answered() && ctrl.idle();
        },
        fromUs(1.0), opts.maxTicks);
    checker.finish();

    mr.completed = answered();
    // Completion is the end of the last data burst on the DRAM bus,
    // so a write-only stream is measured by its service, not by when
    // the controller accepted its last write.
    mr.completionTick =
        sink.rds() + sink.wrs() > 0
            ? sink.lastColumn() + fc.cfg.timing.tCL + fc.cfg.timing.tBURST
            : end;
    mr.responses = check.responses();
    mr.spurious = check.spurious();
    mr.duplicates = check.duplicates();
    mr.mismatched = check.mismatched();
    mr.unanswered = check.unanswered();
    mr.readResponses = player.readResponses();
    mr.avgReadLatencyNs = player.avgReadLatencyNs();

    mr.protocolViolations = checker.violationCount();
    for (const ProtocolViolation &v : checker.violations()) {
        if (mr.violationSamples.size() >= 5)
            break;
        mr.violationSamples.push_back(v.toString());
    }

    mr.actCmds = sink.acts();
    mr.rdCmds = sink.rds();
    mr.wrCmds = sink.wrs();

    if constexpr (std::is_same_v<CtrlT, DRAMCtrl>) {
        mr.servicedByWrQ = static_cast<std::uint64_t>(
            ctrl.ctrlStats().servicedByWrQ.value());
        mr.readBursts = static_cast<std::uint64_t>(
            ctrl.ctrlStats().readBursts.value());
    }

    if (const plugin::EccPlugin *ecc = ctrl.pluginChain().ecc()) {
        mr.eccArmed = true;
        mr.eccWordsPerBurst = ecc->wordsPerBurst();
        mr.eccWordsProcessed = ecc->wordsProcessed();
        mr.eccWordsWithErrors = ecc->wordsWithErrors();
        mr.eccCorrected = ecc->correctedWords();
        mr.eccDetected = ecc->detectedWords();
        mr.eccEscaped = ecc->escapedWords();
    }
    return mr;
}

/**
 * ECC conservation laws, per model: every word that drew at least one
 * injected error is accounted exactly once (corrected, detected or
 * escaped), and the plugin decoded exactly the words the model's RD
 * commands transferred.
 */
void
checkEccConservation(const char *model, const ModelResult &mr,
                     DiffResult &dr)
{
    if (!mr.eccArmed)
        return;

    auto fail = [&](std::string msg) {
        dr.pass = false;
        dr.failures.push_back(std::move(msg));
    };

    if (mr.eccWordsWithErrors !=
        mr.eccCorrected + mr.eccDetected + mr.eccEscaped) {
        fail(formatString(
            "%s: ecc conservation broken: %llu words with errors vs "
            "%llu corrected + %llu detected + %llu escaped",
            model,
            static_cast<unsigned long long>(mr.eccWordsWithErrors),
            static_cast<unsigned long long>(mr.eccCorrected),
            static_cast<unsigned long long>(mr.eccDetected),
            static_cast<unsigned long long>(mr.eccEscaped)));
    }
    if (mr.eccWordsProcessed != mr.rdCmds * mr.eccWordsPerBurst) {
        fail(formatString(
            "%s: ecc decoded %llu words but %llu RD commands x %u "
            "words/burst = %llu",
            model,
            static_cast<unsigned long long>(mr.eccWordsProcessed),
            static_cast<unsigned long long>(mr.rdCmds),
            mr.eccWordsPerBurst,
            static_cast<unsigned long long>(mr.rdCmds *
                                            mr.eccWordsPerBurst)));
    }
}

} // namespace

void
checkFunctional(const char *model, const ModelResult &mr,
                const RequestStream &stream, DiffResult &dr)
{
    auto fail = [&](std::string msg) {
        dr.pass = false;
        dr.failures.push_back(std::move(msg));
    };

    if (!mr.completed)
        fail(formatString("%s: timed out with %llu requests "
                          "unanswered",
                          model,
                          static_cast<unsigned long long>(
                              mr.unanswered)));
    if (mr.responses != stream.size())
        fail(formatString("%s: %llu responses for %llu requests",
                          model,
                          static_cast<unsigned long long>(
                              mr.responses),
                          static_cast<unsigned long long>(
                              stream.size())));
    if (mr.spurious)
        fail(formatString("%s: %llu spurious responses", model,
                          static_cast<unsigned long long>(
                              mr.spurious)));
    if (mr.duplicates)
        fail(formatString("%s: %llu duplicate responses", model,
                          static_cast<unsigned long long>(
                              mr.duplicates)));
    if (mr.mismatched)
        fail(formatString("%s: %llu mismatched responses", model,
                          static_cast<unsigned long long>(
                              mr.mismatched)));
    if (mr.protocolViolations) {
        std::string msg = formatString(
            "%s: %llu protocol violations", model,
            static_cast<unsigned long long>(mr.protocolViolations));
        for (const std::string &s : mr.violationSamples)
            msg += "\n    " + s;
        fail(std::move(msg));
    }
}

std::string
DiffResult::describe() const
{
    if (pass)
        return "pass";
    std::string s;
    for (const std::string &f : failures) {
        if (!s.empty())
            s += "\n";
        s += "  " + f;
    }
    return s;
}

DiffResult
runDiffStream(const FuzzCase &fc, const RequestStream &stream,
              const DiffOptions &opts)
{
    DiffResult dr;
    if (stream.empty())
        return dr;

    dr.event = runModel<DRAMCtrl>(fc, stream, opts, true);
    checkFunctional("event", dr.event, stream, dr);
    checkEccConservation("event", dr.event, dr);

    // Write-queue conservation: every read burst either became a RD
    // command or was forwarded from the write queue; forwarded reads
    // must never reach the DRAM.
    if (dr.event.rdCmds !=
        dr.event.readBursts - dr.event.servicedByWrQ) {
        dr.pass = false;
        dr.failures.push_back(formatString(
            "event: conservation broken: %llu RD commands vs %llu "
            "read bursts - %llu forwarded",
            static_cast<unsigned long long>(dr.event.rdCmds),
            static_cast<unsigned long long>(dr.event.readBursts),
            static_cast<unsigned long long>(
                dr.event.servicedByWrQ)));
    }

    if (!opts.runCycle)
        return dr;

    dr.cycle = runModel<cyclesim::CycleDRAMCtrl>(fc, stream, opts,
                                                 false);
    checkFunctional("cycle", dr.cycle, stream, dr);
    checkEccConservation("cycle", dr.cycle, dr);

    // Timing agreement: tolerance bands, symmetric relative error.
    auto relDiff = [](double a, double b) {
        double m = std::max(std::abs(a), std::abs(b));
        return m > 0.0 ? std::abs(a - b) / m : 0.0;
    };

    if (dr.event.completed && dr.cycle.completed) {
        double ev = toNs(dr.event.completionTick);
        double cy = toNs(dr.cycle.completionTick);
        double bwBand = opts.bandwidthRelTol * std::max(ev, cy) +
                        opts.bandwidthAbsSlackNs;
        if (std::abs(ev - cy) > bwBand) {
            dr.pass = false;
            dr.failures.push_back(formatString(
                "bandwidth divergence: completion %0.f ns (event) vs "
                "%.0f ns (cycle), rel diff %.2f > %.2f",
                ev, cy, relDiff(ev, cy), opts.bandwidthRelTol));
        }

        // Injection span: when completion stretches well past it, the
        // run was bandwidth-bound and queueing delay dominates read
        // latency — skip the latency band (see DiffOptions).
        const Tick span = stream.back().tick;
        bool saturated =
            span == 0 ||
            toNs(dr.event.completionTick) >
                opts.saturationRatio * toNs(span) ||
            toNs(dr.cycle.completionTick) >
                opts.saturationRatio * toNs(span);

        const DRAMTiming &t = fc.cfg.timing;
        double zeroLoadNs =
            toNs(fc.cfg.frontendLatency + fc.cfg.backendLatency +
                 t.tRP + t.tRCD + t.tCL + t.tBURST);
        bool congested =
            dr.event.avgReadLatencyNs >
                opts.congestionFactor * zeroLoadNs ||
            dr.cycle.avgReadLatencyNs >
                opts.congestionFactor * zeroLoadNs;

        if (!saturated && !congested && dr.event.readResponses > 0 &&
            dr.cycle.readResponses > 0) {
            double le = dr.event.avgReadLatencyNs;
            double lc = dr.cycle.avgReadLatencyNs;
            double band = opts.latencyRelTol *
                              std::max(std::abs(le), std::abs(lc)) +
                          opts.latencyAbsSlackNs;
            if (std::abs(le - lc) > band) {
                dr.pass = false;
                dr.failures.push_back(formatString(
                    "latency divergence: avg read %.1f ns (event) vs "
                    "%.1f ns (cycle), |diff| %.1f > band %.1f",
                    le, lc, std::abs(le - lc), band));
            }
        }
    }
    return dr;
}

DiffResult
runDiff(const FuzzCase &fc, std::uint64_t streamSeed,
        const DiffOptions &opts)
{
    return runDiffStream(fc, generateStream(fc.stream, streamSeed),
                         opts);
}

} // namespace validate
} // namespace dramctrl
