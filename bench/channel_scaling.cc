/**
 * @file
 * Intra-run sharded-engine scaling: the same multi-channel workload
 * (one generator per channel of an hmc_vault-style stack) executed at
 * several `--sim-threads` widths per channel count. The sharded
 * engine promises byte-identical results at every width, so each cell
 * is also a determinism check: the stats JSON must match the
 * single-threaded run before its timing counts.
 *
 * A cell's time is the median of three runs and covers the simulate
 * phase only, not the system build. CI gates byte-identity on the 16-
 * and 64-channel rows and a 4-thread speedup floor on a 64-channel
 * cell (docs/PERFORMANCE.md section 7).
 *
 * Usage: channel_scaling [--channels 16,64,256] [--threads 1,2,4,8]
 *                        [--requests-per-gen N] [--json FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "dram/dram_presets.hh"
#include "exec/batch_runner.hh"
#include "exec/thread_pool.hh"
#include "harness/multichannel.hh"
#include "sim/logging.hh"
#include "trafficgen/random_gen.hh"

using namespace dramctrl;

namespace {

struct Cell
{
    unsigned channels;
    unsigned simThreads;
    double seconds;
    double reqPerSec;
    double speedup;
    bool match;
};

/** Runs per cell; the cell reports their median time. */
constexpr int kRepeats = 3;

struct RunResult
{
    double seconds;
    std::string statsJson;
};

/** One full multi-channel run; wall time covers the simulate phase. */
RunResult
runOnce(unsigned channels, unsigned sim_threads,
        std::uint64_t requests_per_gen, std::uint64_t seed)
{
    harness::MultiChannelConfig mcfg;
    mcfg.channels = channels;
    mcfg.ctrl = presets::hmcVault();
    mcfg.ctrl.writeLowThreshold = 0.0;
    mcfg.ctrl.check();
    mcfg.simThreads = sim_threads;

    harness::MultiChannelSystem mc(mcfg);

    GenConfig gc;
    gc.minITT = gc.maxITT = fromNs(4.0);
    gc.numRequests = requests_per_gen;
    gc.readPct = 67;
    for (unsigned i = 0; i < channels; ++i) {
        GenConfig g = harness::sliceGenWindow(gc, i, channels,
                                              mc.totalCapacity());
        g.seed = exec::deriveSeed(seed, i);
        mc.addGen<RandomGen>(g);
    }

    auto t0 = std::chrono::steady_clock::now();
    mc.runToCompletion();
    auto t1 = std::chrono::steady_clock::now();

    std::ostringstream os;
    mc.sim().dumpStatsJson(os);
    return {std::chrono::duration<double>(t1 - t0).count(), os.str()};
}

std::vector<unsigned>
parseList(const char *arg)
{
    std::vector<unsigned> vals;
    std::string s(arg);
    std::size_t pos = 0;
    while (pos < s.size()) {
        std::size_t comma = s.find(',', pos);
        if (comma == std::string::npos)
            comma = s.size();
        vals.push_back(static_cast<unsigned>(
            std::stoul(s.substr(pos, comma - pos))));
        pos = comma + 1;
    }
    return vals;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<unsigned> channel_counts = {16, 64, 256};
    std::vector<unsigned> thread_counts = {1, 2, 4, 8};
    std::uint64_t requests_per_gen = 120;
    std::uint64_t seed = 1;
    const char *json_path = nullptr;
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], "--channels") == 0)
            channel_counts = parseList(argv[++i]);
        else if (std::strcmp(argv[i], "--threads") == 0)
            thread_counts = parseList(argv[++i]);
        else if (std::strcmp(argv[i], "--requests-per-gen") == 0)
            requests_per_gen = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--seed") == 0)
            seed = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0)
            json_path = argv[++i];
    }

    setQuiet(true);
    setThrowOnError(true);

    std::printf("channel_scaling: sharded multi-channel runs, %llu "
                "requests/generator, median simulate time of %d runs "
                "(%u hardware threads)\n\n",
                static_cast<unsigned long long>(requests_per_gen),
                kRepeats, exec::ThreadPool::hardwareThreads());
    std::printf("%9s %8s %10s %12s %9s %6s\n", "channels", "threads",
                "seconds", "req/sec", "speedup", "match");

    std::vector<Cell> grid;
    bool all_match = true;
    for (unsigned channels : channel_counts) {
        double serial_s = 0;
        std::string serial_stats;
        for (unsigned threads : thread_counts) {
            std::vector<double> times;
            bool match = true;
            for (int rep = 0; rep < kRepeats; ++rep) {
                RunResult r =
                    runOnce(channels, threads, requests_per_gen, seed);
                times.push_back(r.seconds);
                if (serial_stats.empty())
                    serial_stats = r.statsJson;
                match = match && r.statsJson == serial_stats;
            }
            std::sort(times.begin(), times.end());
            Cell c;
            c.channels = channels;
            c.simThreads = threads;
            c.seconds = times[times.size() / 2];
            double total_reqs = static_cast<double>(requests_per_gen) *
                                channels;
            c.reqPerSec = c.seconds > 0 ? total_reqs / c.seconds : 0;
            if (threads == thread_counts.front())
                serial_s = c.seconds;
            c.speedup = c.seconds > 0 ? serial_s / c.seconds : 0;
            c.match = match;
            all_match = all_match && c.match;
            grid.push_back(c);
            std::printf("%9u %8u %10.3f %12.0f %8.2fx %6s\n",
                        c.channels, c.simThreads, c.seconds,
                        c.reqPerSec, c.speedup,
                        c.match ? "yes" : "NO");
        }
    }

    if (json_path != nullptr) {
        std::FILE *f = std::fopen(json_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "channel_scaling: cannot open %s\n",
                         json_path);
            return 1;
        }
        std::fprintf(f,
                     "{\"bench\": \"channel_scaling\", "
                     "\"hardware_threads\": %u,\n"
                     " \"requests_per_gen\": %llu, \"seed\": %llu,\n"
                     " \"grid\": [\n",
                     exec::ThreadPool::hardwareThreads(),
                     static_cast<unsigned long long>(requests_per_gen),
                     static_cast<unsigned long long>(seed));
        for (std::size_t i = 0; i < grid.size(); ++i) {
            const Cell &c = grid[i];
            std::fprintf(f,
                         "  {\"channels\": %u, \"sim_threads\": %u, "
                         "\"seconds\": %.6f, \"req_per_sec\": %.1f, "
                         "\"speedup\": %.3f, \"match\": %s}%s\n",
                         c.channels, c.simThreads, c.seconds,
                         c.reqPerSec, c.speedup,
                         c.match ? "true" : "false",
                         i + 1 < grid.size() ? "," : "");
        }
        std::fprintf(f, "]}\n");
        std::fclose(f);
        std::printf("\nwrote %s\n", json_path);
    }

    // Determinism is a hard failure even when timing is not gated.
    return all_match ? 0 : 1;
}
