/**
 * @file
 * Design-space sweep driver: expand a config-grid x seed x
 * traffic-pattern product into independent jobs, run them on the
 * batch engine, and emit one CSV/JSONL row per run.
 *
 * Rows are written in grid order and contain only simulated
 * quantities, so the output file is byte-identical whatever --jobs
 * is. A job that fails (a fatal() or panic() inside the simulation)
 * is isolated: its index and seed are reported on stderr, the row is
 * skipped, and the driver exits non-zero after the batch drains —
 * re-running that one point is `--seed <master>` with the printed
 * index (seeds derive from (master, index)).
 *
 * Examples:
 *   sweep_cli --preset ddr3_1333,lpddr3_1600 --pattern random,dram \
 *             --read-pct 50,100 --jobs 4 --out sweep.csv
 *   sweep_cli --page open,closed --mapping RoRaBaCoCh,RoCoRaBaCh \
 *             --model both --seeds 3 --format jsonl
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "cli/options.hh"
#include "exec/batch_runner.hh"
#include "exec/sweep.hh"
#include "harness/config_file.hh"
#include "obs/metrics.hh"
#include "obs/metrics_server.hh"
#include "sim/logging.hh"

using namespace dramctrl;
using namespace dramctrl::exec;

namespace {

struct SweepCliOptions
{
    SweepSpec spec;
    /** Preset names minted from --config files, joined to the axis. */
    std::vector<std::string> configPresets;
    unsigned jobs = 1;
    std::string out;             // empty = stdout
    std::string format = "csv";  // csv | jsonl
    bool warmStart = false;
    std::string metricsListen;   // live endpoint listen spec
};

/** Parse argv into @p opt. @return false when --help was printed. */
bool
parseArgs(int argc, char **argv, SweepCliOptions &opt)
{
    using namespace cli;
    SweepSpec &spec = opt.spec;
    OptionTable table("[options]   (list-valued options take csv)", {
        csv("--preset", "LIST", spec.presets,
            "ddr3_1333|ddr3_1600|lpddr3_1600|wideio_200|\n"
            "hmc_vault|ddr4_2400|lpddr4_3200|hbm2"),
        // Each file becomes an in-process preset and joins the preset
        // axis, so the grid expands over it like any name.
        custom("--config", "LIST",
               "declarative config files (see\n"
               "docs/STANDARDS.md); each file is registered\n"
               "as an in-process preset and added to the\n"
               "--preset axis under its own name",
               [&opt](const std::string &v) {
                   for (const std::string &path : splitCsv(v))
                       opt.configPresets.push_back(
                           harness::registerConfigPreset(path));
               }),
        csv("--pattern", "LIST", spec.patterns, "linear|random|dram"),
        custom("--page", "LIST",
               "open|open_adaptive|closed|closed_adaptive",
               [&spec](const std::string &v) {
                   spec.pages.clear();
                   for (const std::string &s : splitCsv(v)) {
                       PagePolicy p;
                       if (!pagePolicyFromString(s, p))
                           fatal("unknown page policy '%s'", s.c_str());
                       spec.pages.push_back(p);
                   }
               }),
        custom("--mapping", "LIST", "RoRaBaCoCh|RoRaBaChCo|RoCoRaBaCh",
               [&spec](const std::string &v) {
                   spec.mappings.clear();
                   for (const std::string &s : splitCsv(v)) {
                       AddrMapping m;
                       if (!addrMappingFromString(s, m))
                           fatal("unknown mapping '%s'", s.c_str());
                       spec.mappings.push_back(m);
                   }
               }),
        custom("--read-pct", "LIST", "read percentages",
               [&spec](const std::string &v) {
                   spec.readPcts.clear();
                   for (const std::string &s : splitCsv(v))
                       spec.readPcts.push_back(static_cast<unsigned>(
                           parseUInt("--read-pct", s, ~0u)));
               }),
        custom("--itt-ns", "LIST", "inter-transaction times, ns",
               [&spec](const std::string &v) {
                   spec.ittNs.clear();
                   for (const std::string &s : splitCsv(v))
                       spec.ittNs.push_back(parseDouble("--itt-ns", s));
               }),
        custom("--model", "NAME",
               "event|cycle|both (default event); a grid\n"
               "with a point the cycle model cannot run\n"
               "exits 1 before any run (the one list:\n"
               "docs/STANDARDS.md section 8)",
               [&spec](const std::string &m) {
                   using harness::CtrlModel;
                   if (m == "event")
                       spec.models = {CtrlModel::Event};
                   else if (m == "cycle")
                       spec.models = {CtrlModel::Cycle};
                   else if (m == "both")
                       spec.models = {CtrlModel::Event, CtrlModel::Cycle};
                   else
                       fatal("unknown model '%s'", m.c_str());
               }),
        integer("--seeds", "N", spec.numSeeds,
                "seeds per grid point (default 1)"),
        integer("--seed", "N", spec.masterSeed,
                "master seed (default 1); run seeds derive\n"
                "from (master seed, grid index)"),
        integer("--requests", "N", spec.requests,
                "requests per run (default 5000)"),
        integer("--warmup", "N", spec.warmupRequests,
                "warm-up requests before the stats reset\n"
                "(default 0 = none)"),
        flag("--warm-start", opt.warmStart,
             "checkpoint each config group once after\n"
             "warm-up and fan the measured phases out\n"
             "from the shared snapshot (needs --warmup)"),
        text("--plugins", "LIST", spec.plugins,
             "controller plugin chain applied to every\n"
             "point (csv of ecc|prac|refmgr|refmgr-pb)"),
        integer("--stride", "BYTES", spec.strideBytes,
                "dram-pattern stride (default 256)"),
        integer("--banks", "N", spec.banks,
                "dram-pattern banks (default 4)"),
        integer("--channels", "N", spec.channels,
                "channels per run (default 1); N > 1 builds a\n"
                "sharded multi-channel system per point"),
        threads("--sim-threads", "N", spec.simThreads,
                "worker threads inside each run (default 1;\n"
                "0 = one per core); composes with --jobs and\n"
                "never changes the rows"),
        threads("--jobs", "N", opt.jobs,
                "worker threads (default 1; 0 = one per core);\n"
                "output is identical for every value"),
        text("--out", "PATH", opt.out, "result file (default stdout)"),
        text("--format", "F", opt.format, "csv|jsonl (default csv)"),
        text("--metrics-listen", "SPEC", opt.metricsListen,
             "serve live batch progress (Unix socket\n"
             "path or loopback TCP port; see dramctrl_cli)"),
    });
    if (!table.parse(argc, argv))
        return false;
    if (opt.format != "csv" && opt.format != "jsonl")
        fatal("unknown format '%s'", opt.format.c_str());
    if (opt.warmStart && spec.warmupRequests == 0)
        fatal("--warm-start needs --warmup N");
    // --config names extend an explicit --preset axis; with no
    // --preset they replace the default axis instead of silently
    // sweeping ddr3_1333 alongside the files.
    if (!opt.configPresets.empty()) {
        if (!table.given("--preset"))
            spec.presets.clear();
        for (const std::string &p : opt.configPresets)
            spec.presets.push_back(p);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    setQuiet(true);
    SweepCliOptions opt;
    if (!parseArgs(argc, argv, opt))
        return 0;

    std::string err;
    if (!checkSpec(opt.spec, &err))
        fatal("%s", err.c_str());

    std::vector<SweepPoint> grid = expandGrid(opt.spec);
    std::fprintf(stderr,
                 "sweep: %zu runs (%u worker%s, master seed %llu)\n",
                 grid.size(), opt.jobs, opt.jobs == 1 ? "" : "s",
                 static_cast<unsigned long long>(
                     opt.spec.masterSeed));

    // Live batch progress: a standalone registry (the per-job
    // simulators live inside worker threads and are torn down with
    // each job, so only driver-level progress is exposed) published
    // after every job outcome. Outcome callbacks run on the driver
    // thread, so rendering needs no extra locking.
    std::unique_ptr<obs::MetricsRegistry> metricsReg;
    std::unique_ptr<obs::MetricsServer> metricsServer;
    if (!opt.metricsListen.empty()) {
        metricsReg = std::make_unique<obs::MetricsRegistry>();
        metricsServer =
            std::make_unique<obs::MetricsServer>(opt.metricsListen);
        metricsServer->start();
        std::fprintf(stderr, "sweep: metrics endpoint %s\n",
                     metricsServer->endpoint().c_str());
        metricsReg->gauge("sweep.jobs_total", "runs in the grid")
            .set(static_cast<double>(grid.size()));
    }
    auto publishMetrics = [&]() {
        if (metricsServer)
            metricsServer->publish(*metricsReg);
    };
    publishMetrics();

    std::FILE *out = stdout;
    if (!opt.out.empty()) {
        out = std::fopen(opt.out.c_str(), "w");
        if (out == nullptr)
            fatal("cannot open '%s'", opt.out.c_str());
    }
    if (opt.format == "csv")
        std::fprintf(out, "%s\n", csvHeader().c_str());

    // Failures must throw out of the job (isolated by the runner)
    // instead of exiting the whole batch.
    setThrowOnError(true);

    const SweepSpec &spec = opt.spec;

    // Warm-start: phase 1 runs each config group's warm-up once and
    // keeps the post-reset snapshot; phase 2 completes every point
    // from its group's shared snapshot. Rows are identical to the
    // cold (inline warm-up) path at any --jobs width.
    std::vector<std::string> snapshots;
    if (opt.warmStart) {
        const unsigned seeds = std::max(1u, spec.numSeeds);
        const std::size_t groups = grid.size() / seeds;
        snapshots.resize(groups);
        std::fprintf(stderr,
                     "sweep: warm-start, %zu warm-up snapshot%s\n",
                     groups, groups == 1 ? "" : "s");
        BatchRunner warmup(opt.jobs);
        bool warmupFailed = false;
        warmup.run<std::string>(
            groups,
            [&grid, &spec, seeds](std::size_t g) {
                return captureWarmupSnapshot(grid[g * seeds], spec);
            },
            [&](const exec::JobOutcome<std::string> &out_come) {
                if (metricsReg) {
                    metricsReg
                        ->counter("sweep.warmups_done",
                                  "warm-up snapshots captured")
                        .inc();
                    publishMetrics();
                }
                if (!out_come.ok) {
                    std::fprintf(stderr,
                                 "sweep warm-up %zu FAILED: %s\n",
                                 out_come.index,
                                 out_come.error.c_str());
                    warmupFailed = true;
                    return;
                }
                snapshots[out_come.index] = out_come.value;
            });
        if (warmupFailed) {
            setThrowOnError(false);
            std::fprintf(stderr, "sweep: warm-up phase failed\n");
            return 2;
        }
    }

    std::vector<std::size_t> failedJobs;
    BatchRunner runner(opt.jobs);
    runner.run<SweepRow>(
        grid.size(),
        [&grid, &spec, &snapshots, &opt](std::size_t i) {
            if (opt.warmStart)
                return runMeasuredFromSnapshot(
                    grid[i], spec,
                    snapshots[configGroupOf(grid[i], spec)]);
            return runSweepPoint(grid[i], spec);
        },
        [&](const exec::JobOutcome<SweepRow> &out_come) {
            if (metricsReg) {
                metricsReg
                    ->counter("sweep.jobs_completed", "runs finished")
                    .inc();
                if (!out_come.ok)
                    metricsReg
                        ->counter("sweep.jobs_failed", "runs failed")
                        .inc();
                publishMetrics();
            }
            if (!out_come.ok) {
                std::fprintf(
                    stderr,
                    "sweep job %zu FAILED (seed %llu, master %llu): "
                    "%s\n",
                    out_come.index,
                    static_cast<unsigned long long>(
                        grid[out_come.index].seed),
                    static_cast<unsigned long long>(spec.masterSeed),
                    out_come.error.c_str());
                failedJobs.push_back(out_come.index);
                return;
            }
            std::fprintf(out, "%s\n",
                         (opt.format == "csv"
                              ? toCsv(out_come.value)
                              : toJsonl(out_come.value))
                             .c_str());
        });
    setThrowOnError(false);

    publishMetrics();
    if (metricsServer)
        metricsServer->stop();

    if (out != stdout)
        std::fclose(out);

    if (!failedJobs.empty()) {
        std::fprintf(stderr, "sweep: %zu of %zu runs failed\n",
                     failedJobs.size(), grid.size());
        return 2;
    }
    std::fprintf(stderr, "sweep: all %zu runs completed\n",
                 grid.size());
    return 0;
}
