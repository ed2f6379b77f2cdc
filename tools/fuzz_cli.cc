/**
 * @file
 * Differential fuzz driver: event model vs cycle model vs protocol
 * checker, over randomised configurations and request streams.
 *
 * Each run samples a configuration and a stream from the master seed,
 * feeds the identical stream to both controller models, audits both
 * command streams online against the JEDEC constraint set, and
 * compares functional behaviour exactly and aggregate timing within
 * tolerances. On failure the driver re-runs the case with trace
 * channels captured to a file, shrinks the stream to a locally-minimal
 * reproducer, and writes a self-contained repro JSON that
 * `fuzz_cli --repro FILE` (and the validate_repro test) replays.
 *
 * Runs execute on the batch engine: `--jobs N` fuzzes N cases
 * concurrently (each case is an independent shared-nothing
 * simulation), while results are consumed in run order on the main
 * thread — so all output, including failure repro files and the
 * shrink of the first failure (which proceeds while later jobs drain
 * in the background), is byte-identical whatever N is. A case that
 * dies with a fatal()/panic() is isolated to its job; the driver
 * prints the run index and seed and exits non-zero.
 *
 * Examples:
 *   fuzz_cli --runs 200 --seed 1 --jobs 4
 *   fuzz_cli --runs 0 --duration-s 60 --out-dir repros
 *   fuzz_cli --runs 5 --inject-bug          # must fail: proves the
 *                                           # checker catches faults
 *   fuzz_cli --seed 1 --first-run 42 --runs 1   # replay case 42
 *   fuzz_cli --repro repros/fuzz_fail_42.json
 */

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>

#include "cli/options.hh"
#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "obs/metrics.hh"
#include "obs/metrics_server.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "trafficgen/trace_file.hh"
#include "validate/config_fuzzer.hh"
#include "validate/diff_runner.hh"
#include "validate/repro.hh"
#include "validate/shard_diff.hh"
#include "validate/shrinker.hh"

using namespace dramctrl;
using namespace dramctrl::validate;

namespace {

struct FuzzCliOptions
{
    std::uint64_t runs = 50;
    std::uint64_t seed = 1;
    std::uint64_t firstRun = 0;  // start index into the case sequence
    std::uint64_t requests = 0;  // 0 = per-case sample
    double durationS = 0;        // wall-clock budget; 0 = unlimited
    double toleranceBw = DiffOptions{}.bandwidthRelTol;
    double toleranceLat = DiffOptions{}.latencyRelTol;
    std::string outDir = ".";
    std::string traceCapture;    // per-case stream capture prefix
    std::string repro;           // replay mode
    std::string metricsListen;   // live endpoint listen spec
    unsigned jobs = 1;
    /** Fault to inject: "" (none), trcd, prac, trfcpb, refpb. */
    std::string injectMode;
    /** Preset pool: "" (legacy DDR3-era pool), "all", or a csv. */
    std::string standards;
    bool fuzzPlugins = false;
    bool noShrink = false;
    bool noShardDiff = false;
    bool verbose = false;
};

/** Parse argv into @p opt. @return false when --help was printed. */
bool
parseArgs(int argc, char **argv, FuzzCliOptions &opt)
{
    using namespace cli;
    Option injectBug = text(
        "--inject-bug", "[M]", opt.injectMode,
        "plant fault M in the event model — the run\n"
        "must fail and the checker must name the rule.\n"
        "M: trcd (default; tRCD x 0.5), prac (skip the\n"
        "mitigation refresh), trfcpb (drop the per-bank\n"
        "refresh blackout), refpb (starve one bank of\n"
        "per-bank refresh)");
    // A bare --inject-bug keeps the original tRCD fault.
    injectBug.implicit = "trcd";
    OptionTable table("[options]", {
        integer("--runs", "N", opt.runs,
                "fuzz cases to run (default 50; 0 = until --duration-s)"),
        integer("--seed", "N", opt.seed,
                "master seed (default 1); every failure is\n"
                "reproducible from this seed + run index"),
        integer("--first-run", "N", opt.firstRun,
                "start at case index N (replay one case as\n"
                "--first-run N --runs 1)"),
        threads("--jobs", "N", opt.jobs,
                "concurrent fuzz jobs (default 1; 0 = one\n"
                "per core); output is byte-identical for\n"
                "every value"),
        integer("--requests", "N", opt.requests,
                "override per-case request count"),
        real("--duration-s", "S", opt.durationS,
             "stop after S wall-clock seconds"),
        real("--tolerance-bw", "F", opt.toleranceBw,
             "relative completion-time tolerance (default 0.5)"),
        real("--tolerance-lat", "F", opt.toleranceLat,
             "relative read-latency tolerance (default 0.60)"),
        text("--out-dir", "PATH", opt.outDir,
             "where repro/trace files go (default .)"),
        text("--trace-capture", "P", opt.traceCapture,
             "write every case's drawn request stream as\n"
             "'<P><run>.dtrc' (replayable with dramctrl_cli\n"
             "--pattern trace; identical for every --jobs)"),
        flag("--fuzz-plugins", opt.fuzzPlugins,
             "also draw random plugin chains (ecc, prac,\n"
             "refresh managers) for every case"),
        text("--standards", "S", opt.standards,
             "preset pool to draw timing sets from: 'all'\n"
             "(every registered preset) or a csv of\n"
             "preset names; default keeps the historical\n"
             "DDR3-era pool so old seeds reproduce"),
        injectBug,
        flag("--no-shrink", opt.noShrink,
             "skip stream minimisation on failure"),
        flag("--no-shard-diff", opt.noShardDiff,
             "skip the sharded-vs-sequential check (each\n"
             "case normally also runs a multi-channel\n"
             "system with a random --sim-threads and\n"
             "demands byte-identical results)"),
        text("--repro", "FILE", opt.repro,
             "replay a repro file instead of fuzzing"),
        text("--metrics-listen", "SPEC", opt.metricsListen,
             "serve live fuzz progress (Unix socket\n"
             "path or loopback TCP port; see dramctrl_cli)"),
        flag("--verbose", opt.verbose,
             "print every case, not just failures"),
    });
    return table.parse(argc, argv);
}

int
replayRepro(const FuzzCliOptions &opt)
{
    ReproFile repro;
    std::string err;
    if (!loadReproFile(opt.repro, repro, &err))
        fatal("cannot load repro '%s': %s", opt.repro.c_str(),
              err.c_str());
    std::printf("replaying %s (%zu scripted requests%s)\n",
                opt.repro.c_str(), repro.materialise().size(),
                repro.opts.injectTRCDScale != 1.0 ||
                        repro.opts.injectPracSkip ||
                        repro.opts.injectTRFCpbScale != 1.0 ||
                        repro.opts.injectRefPbStallFlat != ~0u
                    ? ", fault injected"
                    : "");
    if (!repro.note.empty())
        std::printf("note: %s\n", repro.note.c_str());
    DiffResult dr = replay(repro);
    if (dr.pass) {
        std::printf("repro PASSED: the recorded failure no longer "
                    "reproduces\n");
        return 0;
    }
    std::printf("repro FAILED (as recorded):\n%s\n",
                dr.describe().c_str());
    return 2;
}

void
handleFailure(const FuzzCliOptions &opt, std::uint64_t run,
              const FuzzCase &fc, std::uint64_t streamSeed,
              const DiffOptions &dopts, const DiffResult &dr)
{
    std::printf("run %llu FAILED: %s\n  case: %s\n%s\n",
                static_cast<unsigned long long>(run),
                "divergence or violation detected",
                summarize(fc).c_str(), dr.describe().c_str());
    std::printf("  reproduce: --seed %llu --first-run %llu --runs 1\n",
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(run));

    // Re-run once with the DRAM trace channels captured, so the
    // repro ships with a command-level account of the failure. The
    // sink and channel mask are thread-local, so jobs draining on
    // worker threads neither race with nor write into this capture.
    std::string base = opt.outDir + "/fuzz_fail_" +
                       std::to_string(run);
    {
        obs::ChannelMask saved = obs::channelMask();
        obs::FileTextSink traceSink(base + ".trace");
        if (traceSink.ok()) {
            obs::addSink(&traceSink);
            obs::enableChannelsByName("DRAMCtrl,CycleCtrl,Refresh");
            try {
                runDiffStream(fc,
                              generateStream(fc.stream, streamSeed),
                              dopts);
            } catch (const std::exception &e) {
                std::printf("  trace capture died: %s\n", e.what());
            }
            obs::removeSink(&traceSink);
            std::printf("  trace: %s.trace\n", base.c_str());
        } else {
            std::printf("  trace: FAILED to open %s.trace\n",
                        base.c_str());
        }
        obs::setChannelMask(saved);
    }

    RequestStream stream = generateStream(fc.stream, streamSeed);
    ReproFile repro;
    repro.fc = fc;
    repro.streamSeed = streamSeed;
    repro.opts = dopts;
    repro.note = formatString(
        "master seed %llu run %llu: %s",
        static_cast<unsigned long long>(opt.seed),
        static_cast<unsigned long long>(run),
        dr.failures.empty() ? "unknown"
                            : dr.failures.front().c_str());

    if (!opt.noShrink) {
        ShrinkOutcome sh = shrinkStream(fc, stream, dopts);
        std::printf("  shrink: %zu -> %zu requests (%u runs%s)\n",
                    stream.size(), sh.stream.size(), sh.evaluations,
                    sh.minimal ? ", minimal" : ", budget hit");
        repro.stream = sh.stream;
    } else {
        repro.stream = stream;
    }

    std::string path = base + ".json";
    if (writeReproFile(path, repro))
        std::printf("  repro: %s\n", path.c_str());
    else
        std::printf("  repro: FAILED to write %s\n", path.c_str());
}

/**
 * Write one fuzz case's drawn stream as '<prefix><run>.dtrc'. The
 * stream is an intent schedule, not a live capture, so a replay slips
 * on stall — as the differential runner's TracePlayer replays it.
 */
void
captureCaseStream(const std::string &prefix, std::uint64_t run,
                  const RequestStream &stream)
{
    TraceWriter writer(prefix + std::to_string(run) + ".dtrc");
    for (const TraceEntry &e : stream)
        writer.append(e);
    writer.finish();
}

/** What one fuzz job hands back to the in-order consumer. */
struct CaseResult
{
    FuzzCase fc;
    std::uint64_t streamSeed = 0;
    DiffResult dr;
    /** Sharded-vs-sequential cross-check (unless --no-shard-diff). */
    bool shardChecked = false;
    ShardCase sc;
    ShardDiffResult sdr;
};

} // namespace

int
main(int argc, char **argv)
{
    FuzzCliOptions opt;
    if (!parseArgs(argc, argv, opt))
        return 0;
    if (!opt.repro.empty())
        return replayRepro(opt);
    if (opt.runs == 0 && opt.durationS <= 0)
        fatal("--runs 0 needs --duration-s");
    // Create --out-dir up front: a failing case's repro and trace
    // must not be lost to a missing directory at the end of a run.
    std::error_code ec;
    std::filesystem::create_directories(opt.outDir, ec);
    if (ec)
        fatal("--out-dir: cannot create '%s': %s", opt.outDir.c_str(),
              ec.message().c_str());

    DiffOptions dopts;
    dopts.bandwidthRelTol = opt.toleranceBw;
    dopts.latencyRelTol = opt.toleranceLat;
    // The cycle model refuses refmgr-pb: per-bank-refresh faults audit
    // the event model alone against the armed checker.
    bool perBankFault =
        opt.injectMode == "trfcpb" || opt.injectMode == "refpb";
    if (opt.injectMode == "trcd")
        dopts.injectTRCDScale = 0.5;
    else if (opt.injectMode == "prac")
        dopts.injectPracSkip = true;
    else if (opt.injectMode == "trfcpb")
        dopts.injectTRFCpbScale = 0.0;
    else if (opt.injectMode == "refpb")
        dopts.injectRefPbStallFlat = 0;
    else if (!opt.injectMode.empty())
        fatal("unknown --inject-bug mode '%s' (trcd|prac|trfcpb|"
              "refpb)", opt.injectMode.c_str());
    if (perBankFault)
        dopts.runCycle = false;

    auto start = std::chrono::steady_clock::now();
    auto elapsedS = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    FuzzerOptions fopts;
    fopts.numRequests = opt.requests;
    fopts.withPlugins = opt.fuzzPlugins;
    if (perBankFault)
        fopts.cycleCompatible = false;
    if (opt.standards == "all") {
        fopts.standards = presets::names();
    } else if (!opt.standards.empty()) {
        for (const std::string &item : splitCsv(opt.standards)) {
            if (!presets::hasPreset(item))
                fatal("--standards: unknown preset '%s'",
                      item.c_str());
            fopts.standards.push_back(item);
        }
        if (fopts.standards.empty())
            fatal("--standards: no preset names in '%s'",
                  opt.standards.c_str());
    }

    // A planted plugin fault needs its target plugin in every case,
    // tuned so the fault actually manifests within a short stream.
    auto forceInjectTarget = [&](FuzzCase &fc) {
        DRAMCtrlConfig &cfg = fc.cfg;
        if (opt.injectMode == "prac") {
            std::erase_if(cfg.plugins, [](const PluginSpec &p) {
                return p.kind == "prac";
            });
            PluginSpec ps;
            ps.kind = "prac";
            ps.pracThreshold = 4;
            cfg.plugins.push_back(ps);
            // Tight window: rows get re-activated enough to alert.
            fc.stream.windowSize =
                std::min<std::uint64_t>(fc.stream.windowSize,
                                        1ULL << 16);
        } else if (perBankFault) {
            cfg.perRankRefresh = false;
            cfg.enablePowerDown = false;
            cfg.enableSelfRefresh = false;
            if (cfg.timing.tREFI == 0)
                cfg.timing.tREFI = fromUs(1.0);
            std::erase_if(cfg.plugins, [](const PluginSpec &p) {
                return p.kind == "refmgr" || p.kind == "refmgr-pb";
            });
            PluginSpec ps;
            ps.kind = "refmgr-pb";
            cfg.plugins.push_back(ps);
            // The starved-bank deadline is several tREFI out; keep
            // the stream long and busy enough to get there.
            StreamParams &sp = fc.stream;
            sp.numRequests = std::max<std::uint64_t>(sp.numRequests,
                                                     400);
            if (opt.injectMode == "refpb") {
                sp.minITT = std::max<Tick>(sp.minITT, fromNs(30.0));
                sp.maxITT = std::max<Tick>(sp.maxITT, sp.minITT);
            }
        }
        if (!opt.injectMode.empty())
            cfg.check();
    };

    // A case that fatal()s must fail its own job, not the batch.
    setThrowOnError(true);

    // Live fuzz progress: driver-level counters published after every
    // consumed case (the consumer runs on the main thread).
    std::unique_ptr<obs::MetricsRegistry> metricsReg;
    std::unique_ptr<obs::MetricsServer> metricsServer;
    if (!opt.metricsListen.empty()) {
        metricsReg = std::make_unique<obs::MetricsRegistry>();
        metricsServer =
            std::make_unique<obs::MetricsServer>(opt.metricsListen);
        metricsServer->start();
        std::fprintf(stderr, "fuzz: metrics endpoint %s\n",
                     metricsServer->endpoint().c_str());
    }
    auto publishMetrics = [&](std::uint64_t ran_n,
                              std::uint64_t failed_n) {
        if (!metricsServer)
            return;
        metricsReg->gauge("fuzz.cases_run", "fuzz cases consumed")
            .set(static_cast<double>(ran_n));
        metricsReg->gauge("fuzz.cases_failed", "fuzz cases failed")
            .set(static_cast<double>(failed_n));
        metricsReg->gauge("fuzz.elapsed_s", "wall-clock seconds")
            .set(elapsedS());
        metricsServer->publish(*metricsReg);
    };
    publishMetrics(0, 0);

    std::uint64_t ran = 0, failed = 0;
    exec::BatchRunner runner(opt.jobs);

    // A capture file that cannot be written (say, into a missing
    // directory) ends the batch: the jobs still queued return at once,
    // and the tool exits 1 with the fatal() line, like dramctrl_cli.
    std::string captureError;
    std::atomic<bool> stopping{false};

    auto worker = [&](std::uint64_t run) {
        if (stopping.load())
            return CaseResult{};
        // Per-run derivation (splitmix64 over (master, run)) so case
        // N is reproducible without running cases 0..N-1.
        std::uint64_t cs = exec::deriveSeed(opt.seed, run);
        Random rng(cs);
        CaseResult r;
        r.fc = sampleCase(rng, fopts);
        forceInjectTarget(r.fc);
        r.streamSeed = rng.next();
        r.dr = runDiff(r.fc, r.streamSeed, dopts);
        if (!opt.noShardDiff) {
            // Same master-seed derivation: the shard scenario for
            // case N reproduces without running cases 0..N-1, and
            // drawing it after the stream seed leaves the classic
            // case sequence untouched.
            r.shardChecked = true;
            r.sc = sampleShardCase(rng);
            r.sdr = runShardDiff(r.fc.cfg, r.sc);
        }
        return r;
    };

    auto consumeAt = [&](std::uint64_t base_run,
                         const exec::JobOutcome<CaseResult> &out) {
        if (stopping.load())
            return;
        std::uint64_t run = base_run + out.index;
        ++ran;
        if (!out.ok) {
            ++failed;
            std::printf("run %llu DIED (seed %llu): %s\n"
                        "  reproduce: --seed %llu --first-run %llu "
                        "--runs 1\n",
                        static_cast<unsigned long long>(run),
                        static_cast<unsigned long long>(
                            exec::deriveSeed(opt.seed, run)),
                        out.error.c_str(),
                        static_cast<unsigned long long>(opt.seed),
                        static_cast<unsigned long long>(run));
            return;
        }
        if (opt.verbose)
            std::printf("run %llu: %s\n",
                        static_cast<unsigned long long>(run),
                        summarize(out.value.fc).c_str());
        if (!opt.traceCapture.empty()) {
            // Regenerating from (params, seed) here on the main
            // thread keeps the files written in run order whatever
            // --jobs is.
            try {
                captureCaseStream(
                    opt.traceCapture, run,
                    generateStream(out.value.fc.stream,
                                   out.value.streamSeed));
            } catch (const std::runtime_error &e) {
                captureError = e.what();
                stopping.store(true);
                return;
            }
        }
        bool bad = false;
        if (!out.value.dr.pass) {
            bad = true;
            // Capture + shrink runs here on the main thread while
            // later jobs keep draining on the pool.
            try {
                handleFailure(opt, run, out.value.fc,
                              out.value.streamSeed, dopts,
                              out.value.dr);
            } catch (const std::exception &e) {
                std::printf("  failure handling died: %s\n",
                            e.what());
            }
        }
        if (out.value.shardChecked && !out.value.sdr.pass) {
            // A sharding divergence needs no shrink: the whole case
            // reproduces from (master seed, run index).
            bad = true;
            std::printf("run %llu SHARD-DIFF FAILED (%s)\n%s\n"
                        "  reproduce: --seed %llu --first-run %llu "
                        "--runs 1\n",
                        static_cast<unsigned long long>(run),
                        summarize(out.value.sc).c_str(),
                        out.value.sdr.describe().c_str(),
                        static_cast<unsigned long long>(opt.seed),
                        static_cast<unsigned long long>(run));
        }
        if (bad)
            ++failed;
    };

    if (opt.runs != 0) {
        std::uint64_t base = opt.firstRun;
        runner.run<CaseResult>(
            opt.runs,
            [&](std::size_t i) { return worker(base + i); },
            [&](const exec::JobOutcome<CaseResult> &out) {
                consumeAt(base, out);
                publishMetrics(ran, failed);
            });
    } else {
        // Time-boxed mode: waves of one batch per worker, checking
        // the budget between waves.
        std::uint64_t next = opt.firstRun;
        while (!stopping.load() && elapsedS() < opt.durationS) {
            std::uint64_t base = next;
            std::uint64_t wave = opt.jobs;
            runner.run<CaseResult>(
                wave,
                [&](std::size_t i) { return worker(base + i); },
                [&](const exec::JobOutcome<CaseResult> &out) {
                    consumeAt(base, out);
                    publishMetrics(ran, failed);
                });
            next += wave;
        }
    }

    setThrowOnError(false);

    publishMetrics(ran, failed);
    if (metricsServer)
        metricsServer->stop();
    if (stopping.load()) {
        std::fprintf(stderr, "%s\n", captureError.c_str());
        return 1;
    }

    // Summary goes to stderr: it carries wall-clock time and the job
    // count, while stdout stays byte-identical whatever --jobs is.
    std::fprintf(stderr,
                 "fuzz: %llu runs, %llu failures, %.1f s "
                 "(master seed %llu, %u jobs)\n",
                 static_cast<unsigned long long>(ran),
                 static_cast<unsigned long long>(failed), elapsedS(),
                 static_cast<unsigned long long>(opt.seed), opt.jobs);
    return failed ? 2 : 0;
}
