/**
 * @file
 * Trace-pipeline throughput benchmark: how fast the .dtrc format
 * writes, decodes, feeds the player's pull
 * seam, and replays through a simulated controller — plus the text
 * parser on the same trace for the binary-vs-text ratio. CI writes
 * the result to BENCH_trace.json and diffs it against the committed
 * baseline (bench/baselines/BENCH_trace.json, refreshed with
 * tools/regen_perf_baseline.sh).
 *
 * Resident memory is sampled around the streaming phases: the mmap
 * reader releases consumed windows, so the RSS delta stays O(1)
 * however many records the file holds — that, and the Mrec/s columns,
 * are the headline numbers quoted in docs/TRACES.md.
 *
 * Usage: trace_perf [--records N] [--sim-records N] [--json FILE]
 *                     [--keep] [--dir PATH]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "dram/dram_presets.hh"
#include "harness/testbench.hh"
#include "sim/random.hh"
#include "trafficgen/trace.hh"
#include "trafficgen/trace_file.hh"

using namespace dramctrl;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Current resident set size in MiB (0 where /proc is missing). */
double
currentRssMb()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0;
    unsigned long long size = 0, resident = 0;
    int n = std::fscanf(f, "%llu %llu", &size, &resident);
    std::fclose(f);
    if (n != 2)
        return 0;
    return static_cast<double>(resident) * 4096.0 / (1024.0 * 1024.0);
}

struct Row
{
    std::string name;
    std::uint64_t records = 0;
    double seconds = 0;
    double mrecPerSec = 0;
    double rssMb = 0; ///< resident-set delta across the phase
};

Row
makeRow(const std::string &name, std::uint64_t records, double secs,
        double rss_delta)
{
    Row r;
    r.name = name;
    r.records = records;
    r.seconds = secs;
    r.mrecPerSec =
        secs > 0 ? static_cast<double>(records) / secs / 1e6 : 0;
    r.rssMb = rss_delta;
    return r;
}

/** Synthesise and write @p n records; returns the write-phase row. */
Row
writeTrace(const std::string &path, std::uint64_t n)
{
    double rss0 = currentRssMb();
    double t0 = now();
    TraceWriter writer(path);
    Random rng(42);
    Tick tick = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        tick += 3000 + (i % 7) * 250; // ~3-4.5 ns gaps
        TraceEntry e;
        e.tick = tick;
        e.isRead = (rng.next() & 3) != 0; // 75% reads
        // 256 MiB window: inside every preset's channel capacity, so
        // the same file feeds both the decode and the replay phases.
        e.addr = (rng.next() & ((1ULL << 28) - 1)) & ~63ULL;
        e.size = 64;
        writer.append(e);
    }
    writer.finish();
    return makeRow("write", n, now() - t0, currentRssMb() - rss0);
}

/** Decode the whole file; the checksum defeats DCE. */
Row
decodeTrace(const std::string &path)
{
    double rss0 = currentRssMb();
    double t0 = now();
    // The CRC pass at open is part of honest ingestion cost.
    TraceReader reader(path, /*verify_crc=*/true);
    TraceEntry e;
    std::uint64_t n = 0;
    Addr sum = 0;
    while (reader.next(e)) {
        sum += e.addr;
        ++n;
    }
    Row r = makeRow("decode_mmap", n, now() - t0, currentRssMb() - rss0);
    if (sum == 0 && n > 0)
        std::fprintf(stderr, "(unlikely zero checksum)\n");
    return r;
}

/** Pull every record through the player's TraceSource seam. */
Row
dispatchTrace(const std::string &path)
{
    double rss0 = currentRssMb();
    double t0 = now();
    DtrcTraceSource src(path);
    TraceEntry e;
    std::uint64_t n = 0;
    Addr sum = 0;
    while (src.peek(e)) {
        src.advance();
        sum += e.addr;
        ++n;
    }
    Row r = makeRow("source_dispatch", n, now() - t0,
                    currentRssMb() - rss0);
    if (sum == 0 && n > 0)
        std::fprintf(stderr, "(unlikely zero checksum)\n");
    return r;
}

/** Parse the text twin of the same trace with loadTrace(). */
Row
parseText(const std::string &dtrc, const std::string &txt)
{
    // Convert once (not timed) ...
    {
        TraceReader reader(dtrc, /*verify_crc=*/false);
        std::FILE *f = std::fopen(txt.c_str(), "w");
        if (f == nullptr)
            fatal("cannot write '%s'", txt.c_str());
        TraceEntry e;
        while (reader.next(e))
            std::fprintf(f, "%llu %c %llx %u\n",
                         static_cast<unsigned long long>(e.tick),
                         e.isRead ? 'r' : 'w',
                         static_cast<unsigned long long>(e.addr),
                         e.size);
        std::fclose(f);
    }
    // ... then time the parse.
    double rss0 = currentRssMb();
    double t0 = now();
    std::vector<TraceEntry> entries = loadTrace(txt);
    return makeRow("text_parse", entries.size(), now() - t0,
                   currentRssMb() - rss0);
}

/** Replay the first @p n records through a simulated controller. */
Row
simReplay(const std::string &path, std::uint64_t n)
{
    // Truncate to n records so the simulated phase stays affordable
    // at any --records; the ingestion phases above cover the full
    // file.
    std::string clipped = path + ".clip";
    {
        TraceReader reader(path, /*verify_crc=*/false);
        TraceWriter writer(clipped);
        TraceEntry e;
        for (std::uint64_t i = 0; i < n && reader.next(e); ++i)
            writer.append(e);
        writer.finish();
    }

    DRAMCtrlConfig cfg = presets::ddr3_1333();
    cfg.writeLowThreshold = 0.0;
    harness::SingleChannelSystem tb(cfg, harness::CtrlModel::Event);
    TracePlayerConfig pc;
    pc.source = std::make_shared<DtrcTraceSource>(clipped);
    auto &player = tb.addGen<TracePlayer>(pc);

    double rss0 = currentRssMb();
    double t0 = now();
    tb.runToCompletion([&] { return player.done(); }, fromUs(1000000));
    Row r = makeRow("sim_replay", player.injected(), now() - t0,
                    currentRssMb() - rss0);
    std::remove(clipped.c_str());
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t records = 5'000'000;
    std::uint64_t sim_records = 500'000;
    const char *json_path = nullptr;
    std::string dir = "/tmp";
    bool keep = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--records") == 0 && i + 1 < argc)
            records = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--sim-records") == 0 &&
                 i + 1 < argc)
            sim_records = std::stoull(argv[++i]);
        else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc)
            json_path = argv[++i];
        else if (std::strcmp(argv[i], "--dir") == 0 && i + 1 < argc)
            dir = argv[++i];
        else if (std::strcmp(argv[i], "--keep") == 0)
            keep = true;
        else
            fatal("unknown option '%s'", argv[i]);
    }

    std::string dtrc = dir + "/trace_replay_bench.dtrc";
    std::string txt = dir + "/trace_replay_bench.txt";

    std::printf("trace_perf: .dtrc pipeline throughput, %llu "
                "records (%.0f MB)\n",
                static_cast<unsigned long long>(records),
                static_cast<double>(records * kTraceRecordSize) / 1e6);
    std::printf("%-16s %12s %10s %12s %10s\n", "phase", "records",
                "host_s", "Mrec/s", "rss_mb");

    std::vector<Row> rows;
    auto report = [&](const Row &r) {
        rows.push_back(r);
        std::printf("%-16s %12llu %10.3f %12.2f %10.1f\n",
                    r.name.c_str(),
                    static_cast<unsigned long long>(r.records),
                    r.seconds, r.mrecPerSec, r.rssMb);
    };

    report(writeTrace(dtrc, records));
    report(decodeTrace(dtrc));
    report(dispatchTrace(dtrc));
    report(parseText(dtrc, txt));
    report(simReplay(dtrc, std::min(records, sim_records)));

    // Binary-vs-text ingestion ratio on the same trace.
    double bin = 0, text = 0;
    for (const Row &r : rows) {
        if (r.name == "decode_mmap")
            bin = r.mrecPerSec;
        if (r.name == "text_parse")
            text = r.mrecPerSec;
    }
    double ratio = text > 0 ? bin / text : 0;
    std::printf("binary/text ingestion ratio: %.1fx\n", ratio);

    if (json_path != nullptr) {
        std::FILE *f = std::fopen(json_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "trace_perf: cannot open %s\n",
                         json_path);
            return 1;
        }
        std::fprintf(f, "[\n");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row &r = rows[i];
            std::fprintf(
                f,
                "  {\"name\": \"%s\", \"records\": %llu, "
                "\"host_seconds\": %.6f, \"mrec_per_sec\": %.2f, "
                "\"rss_mb\": %.1f}%s\n",
                r.name.c_str(),
                static_cast<unsigned long long>(r.records), r.seconds,
                r.mrecPerSec, r.rssMb, i + 1 < rows.size() ? "," : "");
        }
        std::fprintf(f, "]\n");
        std::fclose(f);
        std::printf("wrote %s\n", json_path);
    }

    if (!keep) {
        std::remove(dtrc.c_str());
        std::remove(txt.c_str());
    }
    return 0;
}
