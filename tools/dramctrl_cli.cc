/**
 * @file
 * Command-line runner: configure a controller and a traffic pattern
 * from flags, simulate, and print (or JSON-dump) the results. The
 * scriptable front end for quick what-if studies without writing C++.
 *
 * Examples:
 *   dramctrl_cli --preset ddr3_1600 --pattern random --requests 50000
 *   dramctrl_cli --preset lpddr3_1600 --pattern linear --read-pct 70 \
 *                --itt-ns 8 --page closed --mapping RoCoRaBaCh
 *   dramctrl_cli --preset wideio_200 --model cycle --json
 *   dramctrl_cli --preset ddr3_1333 --pattern dram --stride 512 \
 *                --banks 4 --audit
 *   dramctrl_cli --preset ddr3_1600 --runs 16 --jobs 4
 *
 * `--runs N` repeats the run N times with per-run seeds derived from
 * (--seed, run index) and prints one summary row per run; `--jobs M`
 * executes them on the batch engine. Rows are emitted in run order
 * and contain only simulated quantities, so output is identical for
 * every --jobs value. A run that dies reports its index and seed and
 * the tool exits non-zero.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt.hh"
#include "cli/options.hh"
#include "dram/cmd_log.hh"
#include "exec/batch_runner.hh"
#include "exec/sweep.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "dram/protocol_checker.hh"
#include "harness/config_file.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "obs/chrome_trace.hh"
#include "obs/event_profiler.hh"
#include "obs/metrics.hh"
#include "obs/metrics_server.hh"
#include "obs/stats_sampler.hh"
#include "obs/trace.hh"
#include "power/micron_power.hh"
#include "sim/eventq.hh"
#include "sim/logging.hh"

using namespace dramctrl;

namespace {

struct CliOptions
{
    /** --preset/--config and the overrides on them. */
    harness::ConfigRequest config;
    /** --pattern, --read-pct, ..., --trace-in, --trace-scale. */
    harness::Stimulus stim;
    std::string dumpConfig;     // dump resolved config to PATH ('-' =
                                // stdout) and exit
    std::string model = "event";    // event | cycle
    bool json = false;
    bool audit = false;
    std::uint64_t runs = 1;  // > 1 = batch mode over derived seeds
    unsigned jobs = 1;

    // Trace capture (see docs/TRACES.md).
    std::string traceCapture; // record the accepted request stream

    // Multi-channel mode (see docs/PERFORMANCE.md, sharding).
    unsigned channels = 0;   // 0 = unset (single channel, or preset's)
    unsigned simThreads = 1; // worker threads for the sharded engine

    // Observability (see docs/OBSERVABILITY.md).
    std::string traceChannels;  // csv of channel names, or "all"
    std::string traceFile;      // text sink target; empty = stderr
    std::string traceJsonl;     // JSONL sink target
    std::string chromeFile;     // Chrome trace-event JSON target
    double sampleIntervalNs = 0;
    std::string sampleFile = "samples.csv";
    std::string sampleFormat = "csv"; // csv | jsonl
    std::string sampleStats;          // csv of stat paths; empty = default
    bool profileEvents = false;
    std::string metricsListen;        // live endpoint listen spec
    double metricsIntervalNs = 1000.0;

    // Checkpointing (see docs/CHECKPOINT.md).
    double ckptAtNs = 0;        // > 0 = stop and save at this time
    std::string ckptOut = "ckpt.bin";
    std::string restoreFrom;    // restore before running
    std::string ckptJson;       // dump a checkpoint as JSON and exit
};

/** Parse argv into @p opt. @return false when --help was printed. */
bool
parseArgs(int argc, char **argv, CliOptions &opt)
{
    using namespace cli;
    harness::ConfigRequest &c = opt.config;
    harness::Stimulus &s = opt.stim;
    OptionTable table("[options]", {
        text("--preset", "NAME", c.preset,
             "ddr3_1333|ddr3_1600|lpddr3_1600|wideio_200|\n"
             "hmc_vault|ddr4_2400|lpddr4_3200|hbm2,\n"
             "or a system preset: hmc_stack_16|hmc_stack_64|\n"
             "hmc_stack_256|hbm2_stack_4|hbm2_stack_8\n"
             "(implies --channels)"),
        text("--config", "PATH", c.configFile,
             "load a declarative JSON config file (see\n"
             "docs/STANDARDS.md; mutually exclusive with\n"
             "--preset)"),
        text("--dump-config", "P", opt.dumpConfig,
             "write the resolved configuration as a\n"
             "config file to P ('-' = stdout) and exit"),
        text("--pattern", "NAME", s.pattern,
             "linear|random|dram (DRAM-aware)|trace\n"
             "(replay --trace-in)"),
        text("--model", "NAME", opt.model, "event|cycle"),
        text("--page", "POLICY", c.page,
             "open|open_adaptive|closed|closed_adaptive"),
        text("--mapping", "NAME", c.mapping,
             "RoRaBaCoCh|RoRaBaChCo|RoCoRaBaCh"),
        text("--sched", "NAME", c.sched, "fcfs|frfcfs|frfcfs_prio"),
        integer("--read-pct", "N", s.readPct,
                "percentage of reads (default 100)"),
        real("--itt-ns", "F", s.ittNs,
             "inter-transaction time (default 6)"),
        integer("--requests", "N", s.requests,
                "requests to simulate (default 20000)"),
        integer("--stride", "BYTES", s.strideBytes,
                "dram pattern stride (default 256)"),
        integer("--banks", "N", s.banks, "dram pattern banks (default 4)"),
        custom("--temperature", "C", "device temperature (default 85)",
               [&c](const std::string &v) {
                   c.temperatureC = parseDouble("--temperature", v);
               }),
        flag("--power-down", c.powerDown,
             "enable the power-down extension"),
        text("--plugins", "LIST", c.plugins,
             "controller plugin chain (csv of ecc|prac|\n"
             "refmgr|refmgr-pb; see docs/PLUGINS.md)"),
        real("--ecc-ber", "F", c.eccBer,
             "raw bit error rate for the ecc plugin"),
        integer("--ecc-seed", "N", c.eccSeed,
                "error-injection seed for the ecc plugin"),
        integer("--prac-threshold", "N", c.pracThreshold,
                "activation threshold for the prac plugin"),
        flag("--audit", opt.audit,
             "log commands and run the JEDEC checker"),
        flag("--json", opt.json, "dump the full stats tree as JSON"),
        integer("--seed", "N", s.seed, "RNG seed (default 1)"),
        integer("--runs", "N", opt.runs,
                "repeat with seeds derived from (seed, run\n"
                "index), one summary row per run"),
        threads("--jobs", "M", opt.jobs,
                "concurrent runs in batch mode (default 1;\n"
                "0 = one per core); output is identical for\n"
                "every value"),
        heading("trace replay/capture (see docs/TRACES.md):"),
        text("--trace-in", "PATH", s.tracePath,
             "stimulus file for --pattern trace; text or\n"
             "binary .dtrc, detected by content"),
        text("--trace-capture", "P", opt.traceCapture,
             "record the accepted request stream to P\n"
             "(.txt => text, anything else => .dtrc binary;\n"
             "with --runs, P is a prefix: one\n"
             "'<P><run>.dtrc' file per run)"),
        real("--trace-scale", "F", s.traceScale,
             "stretch (>1) or compress (<1) replayed\n"
             "inter-request gaps (default 1.0)"),
        heading("multi-channel:"),
        integer("--channels", "N", opt.channels,
                "simulate N interleaved channels behind the\n"
                "sharded crossbar, one generator per channel\n"
                "(--requests is the total across channels)"),
        threads("--sim-threads", "N", opt.simThreads,
                "worker threads for one multi-channel run\n"
                "(default 1; 0 = one per core); stats are\n"
                "byte-identical for every value"),
        heading("observability:"),
        text("--trace", "LIST", opt.traceChannels,
             "enable trace channels (csv or 'all')"),
        text("--trace-file", "PATH", opt.traceFile,
             "tick-stamped text trace to PATH (default stderr)"),
        text("--trace-jsonl", "PATH", opt.traceJsonl,
             "JSONL trace to PATH"),
        text("--trace-chrome", "PATH", opt.chromeFile,
             "Chrome trace-event JSON (packet spans\n"
             "+ DRAM commands; open in Perfetto)"),
        // The leading spaces align the sample-* texts with
        // --sample-interval's.
        real("--sample-interval", "NS", opt.sampleIntervalNs,
             "sample stats every NS ns of sim time"),
        text("--sample-file", "PATH", opt.sampleFile,
             "   time series target (default samples.csv)"),
        text("--sample-format", "F", opt.sampleFormat,
             "   csv|jsonl (default csv)"),
        text("--sample-stats", "LIST", opt.sampleStats,
             " csv of stat paths (default controller set)"),
        flag("--profile-events", opt.profileEvents,
             "count and time events per type"),
        text("--metrics-listen", "SPEC", opt.metricsListen,
             "serve live metrics while running: a\n"
             "Unix socket path (contains '/') or a\n"
             "loopback TCP port (0 = ephemeral);\n"
             "Prometheus text by default, /json for JSON"),
        real("--metrics-interval", "NS", opt.metricsIntervalNs,
             "publish cadence in ns (default 1000)"),
        heading("checkpointing:"),
        real("--ckpt-at", "NS", opt.ckptAtNs,
             "simulate to NS ns, save a checkpoint, stop;\n"
             "exits 1 if the run completes by NS"),
        text("--ckpt-out", "PATH", opt.ckptOut,
             "checkpoint target (default ckpt.bin)"),
        text("--ckpt-restore", "P", opt.restoreFrom,
             "restore checkpoint P (same config flags!)\n"
             "before simulating to completion (see\n"
             "docs/CHECKPOINT.md)"),
        text("--ckpt-json", "PATH", opt.ckptJson,
             "print checkpoint PATH as JSON and exit"),
    });
    if (!table.parse(argc, argv))
        return false;
    if (table.given("--preset") && table.given("--config"))
        fatal("--config and --preset are mutually exclusive (a "
              "config file may name its base preset itself)");
    return true;
}

/**
 * --runs N: the same configuration, N derived seeds, on the batch
 * engine. Reuses the sweep-point runner so the row contents (and
 * therefore the output bytes) match a single-point sweep_cli grid.
 */
int
runBatch(const CliOptions &opt, const harness::ResolvedConfig &rc,
         harness::CtrlModel model)
{
    const harness::ConfigRequest &c = opt.config;
    if (!c.sched.empty() || opt.audit || c.powerDown ||
        !c.plugins.empty() || c.temperatureC.value_or(85.0) != 85.0 ||
        !opt.traceChannels.empty() ||
        !opt.traceFile.empty() || !opt.traceJsonl.empty() ||
        !opt.chromeFile.empty() || opt.sampleIntervalNs > 0 ||
        opt.profileEvents || !opt.metricsListen.empty())
        fatal("--runs batch mode supports the preset/pattern/page/"
              "mapping/read-pct/itt-ns/model/requests/stride/banks/"
              "seed axes only; use a single run (or sweep_cli) for "
              "the rest");

    exec::SweepSpec spec;
    spec.presets = {rc.preset};
    spec.patterns = {opt.stim.pattern};
    spec.pages = {rc.cfg.pagePolicy};
    spec.mappings = {rc.cfg.addrMapping};
    spec.readPcts = {opt.stim.readPct};
    spec.ittNs = {opt.stim.ittNs};
    spec.models = {model};
    spec.numSeeds = static_cast<unsigned>(opt.runs);
    spec.masterSeed = opt.stim.seed;
    spec.requests = opt.stim.requests;
    spec.strideBytes = opt.stim.strideBytes;
    spec.banks = opt.stim.banks;
    spec.tracePath = opt.stim.tracePath;
    spec.traceScale = opt.stim.traceScale;
    spec.traceCapturePrefix = opt.traceCapture;

    std::string err;
    if (!exec::checkSpec(spec, &err))
        fatal("%s", err.c_str());
    std::vector<exec::SweepPoint> grid = exec::expandGrid(spec);

    // A run that fatal()s fails its own job, not the whole batch.
    setThrowOnError(true);
    std::size_t failed = 0;
    exec::BatchRunner runner(opt.jobs);
    runner.run<exec::SweepRow>(
        grid.size(),
        [&](std::size_t i) {
            return exec::runSweepPoint(grid[i], spec);
        },
        [&](const exec::JobOutcome<exec::SweepRow> &out) {
            if (!out.ok) {
                ++failed;
                std::printf("run %zu FAILED (seed %llu, master "
                            "%llu): %s\n",
                            out.index,
                            static_cast<unsigned long long>(
                                grid[out.index].seed),
                            static_cast<unsigned long long>(
                                opt.stim.seed),
                            out.error.c_str());
                return;
            }
            const exec::SweepRow &r = out.value;
            if (opt.json) {
                std::printf("%s\n", exec::toJsonl(r).c_str());
            } else {
                std::printf("run %zu (seed %llu): %.2f us, %.2f "
                            "GB/s, %.1f ns read latency, bus "
                            "%.1f%%\n",
                            out.index,
                            static_cast<unsigned long long>(
                                r.point.seed),
                            r.simulatedUs, r.bandwidthGBs,
                            r.avgReadLatencyNs, 100 * r.busUtil);
            }
        });
    setThrowOnError(false);

    if (failed) {
        std::fprintf(stderr,
                     "batch: %zu of %zu runs failed (master seed "
                     "%llu)\n",
                     failed, grid.size(),
                     static_cast<unsigned long long>(opt.stim.seed));
        return 2;
    }
    return 0;
}

void
printSummary(const CliOptions &opt, const harness::ResolvedConfig &rc,
             harness::SingleChannelSystem &tb)
{
    std::printf("preset %s, %s model, %s pattern, %llu requests, "
                "seed %llu\n",
                rc.preset.c_str(), opt.model.c_str(),
                opt.stim.pattern.c_str(),
                static_cast<unsigned long long>(opt.stim.requests),
                static_cast<unsigned long long>(opt.stim.seed));
    std::printf("simulated time:    %.2f us\n",
                toSeconds(tb.sim().curTick()) * 1e6);
    std::printf("avg read latency:  %.1f ns\n", tb.avgReadLatencyNs());
    std::printf("bus utilisation:   %.1f%%\n",
                100 * tb.ctrl().busUtilisation());
    std::printf("bandwidth:         %.2f / %.2f GB/s\n",
                tb.ctrl().achievedBandwidthGBs(),
                tb.ctrl().peakBandwidthGBs());
    if (power::hasParamsFor(rc.preset)) {
        auto p = power::computePower(tb.ctrl().powerInputs(), rc.cfg,
                                     power::paramsFor(rc.preset));
        std::printf("DRAM power:        %.2f W\n", p.total());
    }
}

void
printSummary(const CliOptions &, const harness::ResolvedConfig &,
             harness::MultiChannelSystem &mc)
{
    std::printf("simulated time:    %.2f us\n",
                toSeconds(mc.sim().curTick()) * 1e6);
    std::printf("avg read latency:  %.1f ns\n", mc.avgReadLatencyNs());
    std::printf("avg bus util:      %.1f%%\n", 100 * mc.avgBusUtil());
    std::printf("total bandwidth:   %.2f GB/s over %u channels\n",
                mc.totalBandwidthGBs(), mc.numChannels());
}

/**
 * Check every channel's command log against the JEDEC rules and print
 * the totals and the first violations.
 *
 * @return the exit status: 0 when clean, 2 on any violation.
 */
int
audit(const DRAMCtrlConfig &cfg, const std::vector<CmdLogger> &loggers)
{
    bool multi = loggers.size() > 1;
    std::size_t cmds = 0, violations = 0;
    std::string shown;
    for (unsigned ch = 0; ch < loggers.size(); ++ch) {
        // Fresh checker per channel: each channel is its own command
        // bus with its own timing state.
        ProtocolChecker checker(cfg.org, cfg.timing);
        plugin::armChecker(checker, cfg);
        auto v = checker.check(loggers[ch].log());
        cmds += loggers[ch].size();
        for (unsigned i = 0; i < 5 && i < v.size(); ++i)
            shown += (multi ? formatString("  ch%u ", ch) : "  ") +
                     v[i].toString() + "\n";
        violations += v.size();
    }
    std::printf("protocol audit:    %zu commands, %zu violations%s\n",
                cmds, violations,
                multi ? formatString(" over %zu channels", loggers.size())
                            .c_str()
                      : "");
    std::fputs(shown.c_str(), stdout);
    return violations == 0 ? 0 : 2;
}

/** Requests the system's generators issue in total. */
std::uint64_t
genRequests(harness::SingleChannelSystem &tb)
{
    return tb.gen().genConfig().numRequests;
}

std::uint64_t
genRequests(harness::MultiChannelSystem &mc)
{
    std::uint64_t n = 0;
    for (unsigned i = 0; i < mc.numGens(); ++i)
        n += mc.gen(i).genConfig().numRequests;
    return n;
}

/**
 * Run one system, single- or multi-channel: command loggers, capture,
 * the stimulus, checkpoint restore or save, the run, the JSON dump or
 * summary, and the protocol audit. @p report prints what the
 * single-channel observers collected, once the run is over.
 */
template <typename System, typename Report>
int
runSystem(const CliOptions &opt, const harness::ResolvedConfig &rc,
          System &sys, Report report)
{
    std::vector<CmdLogger> *loggers = nullptr;
    if (opt.audit || !opt.chromeFile.empty())
        loggers = &sys.attachCmdLoggers();
    if (!opt.traceCapture.empty())
        sys.enableCapture(opt.traceCapture);
    sys.addStimulus(opt.stim);

    if (!opt.restoreFrom.empty()) {
        // A checkpoint restores its generators' request counts, so a
        // different --requests would silently run the saved one.
        bool gens = opt.stim.pattern != "trace";
        std::uint64_t typed = gens ? genRequests(sys) : 0;
        ckpt::restoreFile(sys.sim(), opt.restoreFrom);
        std::uint64_t saved = gens ? genRequests(sys) : 0;
        if (saved != typed)
            fatal("checkpoint '%s' holds a run of %llu requests, not "
                  "the %llu of --requests", opt.restoreFrom.c_str(),
                  static_cast<unsigned long long>(saved),
                  static_cast<unsigned long long>(opt.stim.requests));
    }

    if (!opt.json) {
        std::printf("%s\n", rc.cfg.describe().c_str());
        if (sys.numChannels() > 1)
            std::printf("channels:          %u (sim-threads %u)\n",
                        sys.numChannels(), opt.simThreads);
    }

    if (opt.ckptAtNs > 0) {
        // Advance with runToCompletion's absolute 1 us polling, so a
        // run that completes before the split is seen to, and refuse
        // to checkpoint it: the restored run would end at the split.
        Tick at = fromNs(opt.ckptAtNs);
        Tick step = fromUs(1.0);
        Tick now = sys.sim().curTick();
        if (at <= now)
            fatal("--ckpt-at %.3f ns is not after the restored tick "
                  "%llu", opt.ckptAtNs,
                  static_cast<unsigned long long>(now));
        harness::runUntil(sys.sim(), [&] { return sys.drained(); }, step,
                          at - now);
        if (sys.drained()) {
            Tick end = (sys.sim().curTick() + step - 1) / step * step;
            fatal("--ckpt-at %.3f ns is at or after the end of the run "
                  "(tick %llu, %.3f us)", opt.ckptAtNs,
                  static_cast<unsigned long long>(end),
                  toSeconds(end) * 1e6);
        }
        ckpt::saveFile(sys.sim(), opt.ckptOut);
        sys.finishCapture();
        if (!opt.json)
            std::printf("checkpoint:        %s (at %.2f us)\n",
                        opt.ckptOut.c_str(),
                        toSeconds(sys.sim().curTick()) * 1e6);
        return 0;
    }

    sys.runToCompletion();
    sys.finishCapture();
    report(loggers);

    if (opt.json) {
        // Envelope so the seed rides along with the stats: rerunning
        // with --seed <seed> reproduces the run bit for bit.
        std::cout << "{\"seed\": " << opt.stim.seed << ", \"stats\": ";
        sys.sim().dumpStatsJson(std::cout);
        std::cout << "}\n";
    } else {
        printSummary(opt, rc, sys);
    }
    return opt.audit ? audit(rc.cfg, *loggers) : 0;
}

/**
 * One channel, with the mid-run observers: trace sinks, the Chrome
 * trace, the event profiler, the stats sampler and the live metrics
 * endpoint.
 */
int
runSingleChannel(const CliOptions &opt, const harness::ResolvedConfig &rc,
                 harness::CtrlModel model)
{
    // Trace channels and sinks. With channels enabled but no sink
    // requested, messages fall back to stderr.
    if (!opt.traceChannels.empty() &&
        !obs::enableChannelsByName(opt.traceChannels))
        fatal("unknown trace channel in '%s' (channels: DRAMCtrl, "
              "CycleCtrl, XBar, Port, PacketQueue, EventQ, Refresh, "
              "Power, Sampler, or 'all')",
              opt.traceChannels.c_str());
    std::unique_ptr<obs::FileTextSink> traceTextSink;
    if (!opt.traceFile.empty()) {
        traceTextSink =
            std::make_unique<obs::FileTextSink>(opt.traceFile);
        if (!traceTextSink->ok())
            fatal("cannot open trace file '%s'", opt.traceFile.c_str());
        obs::addSink(traceTextSink.get());
    }
    std::unique_ptr<obs::FileJsonlSink> traceJsonlSink;
    if (!opt.traceJsonl.empty()) {
        traceJsonlSink =
            std::make_unique<obs::FileJsonlSink>(opt.traceJsonl);
        if (!traceJsonlSink->ok())
            fatal("cannot open trace file '%s'",
                  opt.traceJsonl.c_str());
        obs::addSink(traceJsonlSink.get());
    }

    obs::ChromeTraceWriter chrome;
    if (!opt.chromeFile.empty())
        obs::setChromeTracer(&chrome);

    harness::SingleChannelSystem tb(rc.cfg, model);

    obs::EventProfiler profiler;
    if (opt.profileEvents)
        tb.sim().eventq().setProfiler(&profiler);

    std::ofstream sampleOut;
    std::unique_ptr<obs::StatsSampler> sampler;
    if (opt.sampleIntervalNs > 0) {
        sampleOut.open(opt.sampleFile);
        if (!sampleOut.is_open())
            fatal("cannot open sample file '%s'",
                  opt.sampleFile.c_str());
        if (opt.sampleFormat != "csv" && opt.sampleFormat != "jsonl")
            fatal("unknown sample format '%s'",
                  opt.sampleFormat.c_str());
        auto fmt = opt.sampleFormat == "jsonl"
                       ? obs::StatsSampler::Format::Jsonl
                       : obs::StatsSampler::Format::Csv;
        sampler = std::make_unique<obs::StatsSampler>(
            tb.sim(), "sampler", fromNs(opt.sampleIntervalNs),
            sampleOut, fmt);
        auto addOne = [&](const std::string &path) {
            if (!sampler->addStat(path))
                warn("sample stat '%s' does not resolve, skipping",
                     path.c_str());
        };
        if (!opt.sampleStats.empty()) {
            for (const std::string &path : splitCsv(opt.sampleStats))
                addOne(path);
        } else {
            for (const char *s :
                 {"readReqs", "writeReqs", "bytesRead", "bytesWritten",
                  "busUtil", "rowHitRate", "avgRdQLen", "avgWrQLen"})
                addOne(std::string("mem_ctrl.") + s);
        }
        if (sampler->numStats() == 0)
            fatal("no sample stats resolved");
    }

    // Live introspection endpoint: a poll-based server fed by a
    // periodic publisher. The publisher is a SimObject, so it must be
    // constructed before any checkpoint restore (the object lists
    // have to match — same rule as the sampler, hence the "same
    // config flags" note under --ckpt-restore).
    std::unique_ptr<obs::MetricsServer> metricsServer;
    std::unique_ptr<obs::MetricsPublisher> metricsPublisher;
    if (!opt.metricsListen.empty()) {
        metricsServer =
            std::make_unique<obs::MetricsServer>(opt.metricsListen);
        metricsServer->start();
        MemCtrlBase &ctrl = tb.ctrl();
        metricsPublisher = std::make_unique<obs::MetricsPublisher>(
            tb.sim(), "metrics", tb.sim().metrics(), *metricsServer,
            fromNs(opt.metricsIntervalNs),
            [&ctrl](obs::MetricsRegistry &reg) {
                reg.gauge("ctrl.queued_requests",
                          "requests buffered in the controller")
                    .set(static_cast<double>(ctrl.queuedRequests()));
            });
        if (!opt.json)
            std::printf("metrics endpoint:  %s\n",
                        metricsServer->endpoint().c_str());
    }

    auto report = [&](std::vector<CmdLogger> *loggers) {
        if (!opt.traceCapture.empty() && !opt.json)
            std::printf("trace capture:     %s\n",
                        opt.traceCapture.c_str());
        if (!opt.chromeFile.empty()) {
            chrome.importCmdLog(loggers->front().log(), "mem_ctrl");
            if (!chrome.writeFile(opt.chromeFile))
                fatal("cannot write chrome trace '%s'",
                      opt.chromeFile.c_str());
            obs::setChromeTracer(nullptr);
            if (!opt.json)
                std::printf("chrome trace:      %s (%zu events)\n",
                            opt.chromeFile.c_str(), chrome.numEvents());
        }
        if (sampler && !opt.json)
            std::printf("stats samples:     %s (%llu samples of %zu "
                        "stats)\n",
                        opt.sampleFile.c_str(),
                        static_cast<unsigned long long>(
                            sampler->samplesTaken()),
                        sampler->numStats());
        if (opt.profileEvents) {
            tb.sim().eventq().setProfiler(nullptr);
            profiler.report(std::cout);
        }
    };
    return runSystem(opt, rc, tb, report);
}

} // namespace

int
main(int argc, char **argv)
{
    CliOptions opt;
    if (!parseArgs(argc, argv, opt))
        return 0;

    if (!opt.ckptJson.empty()) {
        ckpt::dumpJsonFile(opt.ckptJson, std::cout);
        return 0;
    }

    // A system preset names a whole multi-channel assembly; an
    // explicit --channels can still override its channel count.
    harness::ResolvedConfig rc = harness::resolveConfig(opt.config);
    unsigned channels = opt.channels ? opt.channels : rc.channels;

    if (!opt.dumpConfig.empty()) {
        // Emit the fully-resolved configuration (preset + config file
        // + CLI overrides) as a config file. The preset name is only
        // recorded when re-parsing can resolve it.
        std::string pname =
            presets::hasPreset(rc.preset) ? rc.preset : "";
        if (opt.dumpConfig == "-") {
            std::fputs(harness::dumpConfig(rc.cfg, pname).c_str(),
                       stdout);
        } else if (!harness::writeConfigFile(opt.dumpConfig, rc.cfg,
                                             pname)) {
            fatal("cannot write config file '%s'",
                  opt.dumpConfig.c_str());
        }
        return 0;
    }

    auto model = opt.model == "cycle" ? harness::CtrlModel::Cycle
                                      : harness::CtrlModel::Event;
    if (opt.model != "cycle" && opt.model != "event")
        fatal("unknown model '%s'", opt.model.c_str());

    std::string err;
    if (!harness::checkStimulus(opt.stim, std::max(channels, 1u),
                                &err))
        fatal("%s", err.c_str());

    if (channels > 1) {
        // --channels N: one sharded multi-channel system, one
        // generator per channel, executed by --sim-threads worker
        // threads. Stats and exit status are byte-identical for every
        // thread count (see sim/shard.hh), so --sim-threads is a pure
        // wall-clock knob.
        if (opt.runs > 1 || !opt.traceChannels.empty() ||
            !opt.traceFile.empty() || !opt.traceJsonl.empty() ||
            !opt.chromeFile.empty() || opt.sampleIntervalNs > 0 ||
            opt.profileEvents || !opt.metricsListen.empty())
            fatal("--channels supports the preset/pattern/page/mapping/"
                  "sched/read-pct/itt-ns/model/requests/seed/audit/json/"
                  "checkpoint axes only; mid-run observers read "
                  "simulator state across shards and stay "
                  "single-channel");
        harness::MultiChannelConfig mcfg;
        mcfg.channels = channels;
        mcfg.ctrl = rc.cfg;
        mcfg.model = model;
        mcfg.simThreads = opt.simThreads;
        harness::MultiChannelSystem mc(mcfg);
        return runSystem(opt, rc, mc, [](std::vector<CmdLogger> *) {});
    }
    if (opt.simThreads > 1)
        fatal("--sim-threads shards a multi-channel run; it needs "
              "--channels N (or a system preset)");

    if (opt.runs > 1)
        return runBatch(opt, rc, model);
    return runSingleChannel(opt, rc, model);
}
