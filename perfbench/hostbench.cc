/**
 * @file
 * hostbench: host speed of the simulator on one named workload.
 *
 * Runs batches of the workload (see workloads.hh) until --seconds of
 * host time have passed, and at least a few batches ran. Every batch
 * rebuilds its system with the same seed, so every batch must produce
 * the same statistics digest.
 *
 *  --trace 0: every batch untraced; reports the end-to-end metrics.
 *  --trace 1: batches alternate untraced / traced; reports the
 *             per-layer host-time split of the traced batch with the
 *             highest calibrated rate, the simulated statistics, and
 *             the tracing overhead.
 *
 * The last line of standard output is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 *
 * Usage: hostbench --workload NAME --seed N --seconds S --trace 0|1
 *                  [--scale X]
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "calibration.hh"
#include "sim/logging.hh"
#include "workloads.hh"

using namespace hostbench;

namespace {

using Clock = std::chrono::steady_clock;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    double scale = 1.0;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: hostbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scale X]\nworkloads:");
    for (const std::string &w : workloadNames())
        std::fprintf(stderr, " %s", w.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

bool
parse(int argc, char **argv, Options &o)
{
    for (int i = 1; i < argc; ++i) {
        if (i + 1 >= argc)
            return false;
        const char *key = argv[i];
        const char *val = argv[++i];
        char *end = nullptr;
        if (std::strcmp(key, "--workload") == 0) {
            o.workload = val;
            continue;
        }
        if (std::strcmp(key, "--seed") == 0)
            o.seed = std::strtoull(val, &end, 10);
        else if (std::strcmp(key, "--seconds") == 0)
            o.seconds = std::strtod(val, &end);
        else if (std::strcmp(key, "--trace") == 0)
            o.trace = std::strtoul(val, &end, 10) != 0;
        else if (std::strcmp(key, "--scale") == 0)
            o.scale = std::strtod(val, &end);
        else
            return false;
        if (end == val || *end != '\0')
            return false;
    }
    const auto &names = workloadNames();
    return std::find(names.begin(), names.end(), o.workload) !=
               names.end() &&
           o.seconds >= 0 && o.scale > 0;
}

/** Why this build must not report timings; nullptr when it may. */
const char *
buildRefusal()
{
#if !defined(__OPTIMIZE__)
    return "an unoptimised";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    HOSTBENCH_INSTRUMENTED
    return "a sanitizer or coverage";
#else
    if (std::strcmp(HOSTBENCH_BUILD_TYPE, "Debug") == 0)
        return "a Debug";
    return nullptr;
#endif
}

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        s.erase(0, s.find_first_not_of(' '));
        s.erase(s.find_last_not_of(' ') + 1);
        if (!s.empty())
            return s;
    }
#endif
    return "unknown";
}

const char *
compilerName()
{
#if defined(__clang__)
    return "clang " __clang_version__;
#elif defined(__GNUC__)
    return "gcc " __VERSION__;
#else
    return "unknown";
#endif
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

double
nsPer(double seconds, std::uint64_t calls)
{
    return calls > 0 ? seconds * 1e9 / static_cast<double>(calls) : 0.0;
}

double
reqPerSec(const BatchResult &b)
{
    return ratio(static_cast<double>(b.work), b.measureSeconds);
}

/** Worker capacity of a batch's measured phase: wall x threads. */
double
capacity(const BatchResult &b)
{
    return b.measureSeconds * b.threads;
}

/** Capacity not covered by any part or by the profiler itself. */
double
kernelSeconds(const BatchResult &b)
{
    return capacity(b) - b.split.partsSeconds() - b.split.bookkeeping;
}

/**
 * Print the per-layer table of traced batch @p b. Its rows (every
 * part, the profiler's bookkeeping and the kernel residual) sum to the
 * traced wall time times the worker count. @return false if the split
 * is inconsistent: a row negative beyond clock resolution, or parts
 * that do not re-divide exactly the event time the profiler saw.
 */
bool
printLayerTable(const BatchResult &b)
{
    const double cap = capacity(b);
    std::printf("\nper-layer host time of the least disturbed traced "
                "batch: "
                "%.3f ms wall x %u threads = %.3f ms\n",
                b.measureSeconds * 1e3, b.threads, cap * 1e3);
    std::printf("  %-10s %-22s %10s %7s %11s %9s\n", "layer", "part",
                "host_ms", "share", "calls", "ns/call");
    const double slack = 1e-6 * cap;
    bool ok = true;
    double rows = 0;
    auto row = [&](const char *layer, const char *part, double sec,
                   std::uint64_t calls) {
        rows += sec;
        ok = ok && sec >= -slack;
        std::printf("  %-10s %-22s %10.3f %6.2f%% %11llu %9.1f\n", layer,
                    part, sec * 1e3, 100.0 * ratio(sec, cap),
                    static_cast<unsigned long long>(calls),
                    nsPer(sec, calls));
    };
    for (unsigned i = 0; i < kNumParts; ++i) {
        Part p = static_cast<Part>(i);
        if (b.split.n(p) > 0)
            row(partLayer(p), partName(p), b.split.sec(p), b.split.n(p));
    }
    row("trace", "profiler bookkeeping", b.split.bookkeeping, b.events);
    row("sim", b.windows > 0 ? "kernel + shard idle" : "kernel",
        kernelSeconds(b), b.events);
    std::printf("  %-33s %10.3f %6.2f%%\n", "total", rows * 1e3,
                100.0 * ratio(rows, cap));
    // The parts re-divide exactly the event time the profiler saw, and
    // it saw every event the queues serviced.
    const bool covered =
        b.split.events == b.events &&
        std::fabs(b.split.partsSeconds() - b.split.eventSeconds) <= slack;
    ok = ok && covered && std::fabs(rows - cap) <= slack;
    std::printf("layer_sum: rows %.6f ms, wall x threads %.6f ms; parts "
                "%.6f ms of %.6f ms event time over %llu of %llu events: "
                "%s\n",
                rows * 1e3, cap * 1e3, b.split.partsSeconds() * 1e3,
                b.split.eventSeconds * 1e3,
                static_cast<unsigned long long>(b.split.events),
                static_cast<unsigned long long>(b.events),
                ok ? "ok" : "MISMATCH");
    return ok;
}

/** Metrics of the traced run, from its least disturbed traced batch. */
std::vector<Metric>
perLayerMetrics(const BatchResult &b, double overhead)
{
    const HostSplit &s = b.split;
    const double work = static_cast<double>(b.work);
    auto ns = [&](Part p) { return nsPer(s.sec(p), s.n(p)); };
    auto per_req = [&](double n) { return ratio(n, work); };
    auto model = [&](const char *name) {
        auto it = b.model.find(name);
        return it == b.model.end() ? 0.0 : it->second;
    };
    return {
        {"sim.events_per_req", per_req(b.events), "count"},
        {"sim.kernel_ns_per_event", nsPer(kernelSeconds(b), b.events),
         "ns"},
        {"sim.shard.windows", static_cast<double>(b.windows), "count"},
        {"sim.shard.msgs_per_req", per_req(b.messages), "count"},
        {"sim.shard.idle_frac",
         b.windows > 0 ? ratio(kernelSeconds(b), capacity(b)) : 0.0,
         "ratio"},
        {"trafficgen.inject_ns", ns(Part::GenInject), "ns"},
        {"trafficgen.retry_frac", ratio(s.tapRefused, s.tapAttempts),
         "ratio"},
        {"mem.respq_ns", ns(Part::RespQueue), "ns"},
        {"dram.next_req_ns", ns(Part::NextReq), "ns"},
        {"dram.enqueue_ns", ns(Part::DramEnqueue), "ns"},
        {"dram.refused_frac", model("dram.refused_frac"), "ratio"},
        {"dram.bw_gbs", model("dram.bw_gbs"), "GB/s"},
        {"dram.bus_util", model("dram.bus_util"), "ratio"},
        {"dram.row_hit_rate", model("dram.row_hit_rate"), "ratio"},
        {"dram.rd_lat_ns_mean", model("dram.rd_lat_ns_mean"), "ns"},
        {"dram.wr_per_turnaround", model("dram.wr_per_turnaround"),
         "count"},
        {"dram.avg_rdq_len", model("dram.avg_rdq_len"), "count"},
        {"cyclesim.tick_ns", ns(Part::CycleTick), "ns"},
        {"cyclesim.ticks_per_req", per_req(s.n(Part::CycleTick)),
         "count"},
        {"cyclesim.bw_gbs", model("cyclesim.bw_gbs"), "GB/s"},
        {"cyclesim.rd_lat_ns_mean", model("cyclesim.rd_lat_ns_mean"),
         "ns"},
        {"xbar.send_ns", ns(Part::XbarSend), "ns"},
        {"xbar.wake_ns", ns(Part::XbarWake), "ns"},
        {"xbar.wakes_per_req", per_req(s.n(Part::XbarWake)), "count"},
        {"cpu.tick_ns", ns(Part::CoreTick), "ns"},
        {"cpu.ipc", model("cpu.ipc"), "ratio"},
        {"cpu.l2_miss_rate", model("cpu.l2_miss_rate"), "ratio"},
        {"cpu.l2_miss_lat_ns", model("cpu.l2_miss_lat_ns"), "ns"},
        {"trace.overhead_frac", overhead, "ratio"},
    };
}

/**
 * Pin a single-threaded workload's next batch to the next allowed CPU
 * in turn, so a run samples every core of a shared host instead of
 * staying on whichever one the scheduler picked. Multi-threaded
 * workloads keep the whole mask (their workers inherit it).
 */
class CpuRotation
{
  public:
    explicit CpuRotation(bool enabled)
    {
        if (!enabled || sched_getaffinity(0, sizeof(orig_), &orig_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &orig_))
                cpus_.push_back(c);
    }

    ~CpuRotation()
    {
        if (!cpus_.empty())
            sched_setaffinity(0, sizeof(orig_), &orig_);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    pin(std::size_t batch)
    {
        if (cpus_.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[batch % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    cpu_set_t orig_{};
    std::vector<int> cpus_;
};

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i > 0 ? ", " : "", metrics[i].name.c_str(),
                    metrics[i].value, metrics[i].unit);
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Options o;
    if (!parse(argc, argv, o))
        return usage();
    if (const char *why = buildRefusal()) {
        std::fprintf(stderr, "hostbench: refusing to report timings from "
                             "%s build\n", why);
        return 3;
    }
    dramctrl::setQuiet(true);

    std::printf("host: cores=%u cpu=\"%s\" compiler=\"%s\" build=%s\n",
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                compilerName(), HOSTBENCH_BUILD_TYPE);
    std::printf("workload=%s seed=%llu seconds=%g trace=%d scale=%g\n",
                o.workload.c_str(),
                static_cast<unsigned long long>(o.seed), o.seconds,
                o.trace ? 1 : 0, o.scale);

    // Traced runs alternate untraced and traced batches, so they need
    // at least two of each.
    const std::size_t min_batches = o.trace ? 4 : 3;
    std::vector<BatchResult> batches;
    // Calibration rate next to each batch: the mean of one kernel run
    // just before and one just after it, on the same CPUs.
    std::vector<double> calib;
    // Peak memory of one system built, warmed and run. Later batches
    // rebuild the same system; their allocator reuse varies with how
    // many batches fit in the run, which would only add noise.
    double first_batch_rss_mb = 0;
    {
        const unsigned threads = workloadThreads(o.workload);
        CpuRotation rotation(threads == 1);
        auto start = Clock::now();
        while (batches.size() < min_batches ||
               std::chrono::duration<double>(Clock::now() - start)
                       .count() < o.seconds) {
            // A traced batch runs on the CPU of the untraced one before it.
            bool traced = o.trace && batches.size() % 2 == 1;
            rotation.pin(o.trace ? batches.size() / 2 : batches.size());
            const double before = calibrationRate(threads);
            batches.push_back(
                runBatch(o.workload, o.seed, o.scale, traced));
            calib.push_back(0.5 * (before + calibrationRate(threads)));
            const BatchResult &b = batches.back();
            if (batches.size() == 1)
                first_batch_rss_mb = peakRssMb();
            std::printf("batch %zu traced=%d setup_s=%.6f measure_s=%.6f "
                        "work=%llu req_per_s=%.1f calib=%.0f digest=%s\n",
                        batches.size() - 1, b.traced ? 1 : 0,
                        b.setupSeconds, b.measureSeconds,
                        static_cast<unsigned long long>(b.work),
                        reqPerSec(b), calib.back(), b.digest.c_str());
        }
    }

    // Correctness: every request answered, some work measured, and
    // every batch (traced or not) reproducing the first batch's
    // statistics exactly.
    std::uint64_t attempted = 0, failed = 0;
    bool digests_match = true;
    for (const BatchResult &b : batches) {
        attempted += b.work + b.unanswered;
        failed += b.unanswered;
        if (b.work == 0)
            failed += 1; // a measured phase must do some work
        if (b.digest != batches.front().digest) {
            digests_match = false;
            failed += std::max<std::uint64_t>(b.work, 1);
        }
    }
    std::printf("digest %s %s\n", batches.front().digest.c_str(),
                digests_match ? "(identical in every batch)"
                              : "(MISMATCH between batches)");

    // Host speeds are calibrated (see calibration.hh): a batch's rate is
    // scaled by kNominalRate over the calibration rate measured next to
    // it, and its set-up time by the inverse. The median over batches
    // then estimates the speed on the nominal host.
    std::vector<double> raw_rps, norm_rps[2], norm_setup, calib_untraced;
    const BatchResult *least_disturbed = nullptr;
    double best_traced = -1; // any traced batch beats none
    for (std::size_t i = 0; i < batches.size(); ++i) {
        const BatchResult &b = batches[i];
        const double scale = kNominalRate / calib[i];
        const double rate = reqPerSec(b) * scale;
        norm_rps[b.traced].push_back(rate);
        if (b.traced && rate > best_traced) {
            best_traced = rate;
            least_disturbed = &b;
        }
        if (!b.traced) {
            raw_rps.push_back(reqPerSec(b));
            calib_untraced.push_back(calib[i]);
            norm_setup.push_back(b.setupSeconds / scale);
        }
    }
    const double req_per_s = median(norm_rps[0]);
    std::printf("untraced req_per_s over %zu batches: median %.1f raw, "
                "calibration median %.0f events/s, calibrated to "
                "%.0f events/s: %.1f\n",
                raw_rps.size(), median(raw_rps), median(calib_untraced),
                kNominalRate, req_per_s);

    std::vector<Metric> metrics;
    bool layers_ok = true;
    if (!o.trace) {
        metrics = {
            {"req_per_s", req_per_s, "1/s"},
            {"setup_s", median(norm_setup), "s"},
            {"peak_rss_mb", first_batch_rss_mb, "MB"},
        };
    } else {
        const BatchResult &b = *least_disturbed;
        layers_ok = printLayerTable(b);
        const double overhead =
            1.0 - ratio(median(norm_rps[1]), req_per_s);
        std::printf("tracing overhead: calibrated median traced %.1f "
                    "req/s vs untraced %.1f req/s (%.1f%% slower)\n",
                    median(norm_rps[1]), req_per_s, 100.0 * overhead);
        metrics = perLayerMetrics(b, overhead);
    }

    bool finite = true;
    for (const Metric &m : metrics)
        finite = finite && std::isfinite(m.value);
    const bool correct = failed == 0 && layers_ok && finite;
    printJson(correct, std::max<std::uint64_t>(attempted, 1), failed,
              metrics);
    return 0;
}
