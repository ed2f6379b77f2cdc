/**
 * @file
 * Trace file toolbox: convert between the text and binary (.dtrc)
 * trace formats, inspect headers, print leading records, and validate
 * structure + CRC. See docs/TRACES.md for the format itself.
 *
 *   trace_cli convert IN OUT     # formats picked by content / suffix
 *   trace_cli stat FILE          # header, counts, duration, rates
 *   trace_cli head FILE [-n N]   # first N records as text lines
 *   trace_cli validate FILE      # structure + CRC check, exit status
 */

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "cli/options.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "trafficgen/trace.hh"
#include "trafficgen/trace_file.hh"

using namespace dramctrl;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s COMMAND ...\n"
        "  convert IN OUT   convert between text and .dtrc traces\n"
        "                   (input format sniffed by content; output\n"
        "                   format from the suffix: .txt => text,\n"
        "                   anything else => .dtrc)\n"
        "  stat FILE        print header fields, record count,\n"
        "                   duration and request rate\n"
        "  head FILE [-n N] print the first N records (default 10)\n"
        "                   as '<tick> <r|w> <addr> <size> [# src S]'\n"
        "  validate FILE    check structure and CRC; exit 0 iff OK\n",
        argv0);
    return 2;
}

int
cmdConvert(const std::string &in, const std::string &out)
{
    TraceFormat from = traceFormatOf(in);
    TraceFormat to = traceFormatForOutput(out);

    if (from == TraceFormat::Dtrc && to == TraceFormat::Dtrc) {
        // Re-encode record by record (drops nothing, repacks deltas,
        // refreshes the CRC) while preserving the source ids and the
        // live-capture flag — streamed, so size doesn't matter.
        TraceReader reader(in);
        TraceWriter writer(out, reader.info().ticksPerSecond,
                           reader.info().flags);
        TraceEntry e;
        unsigned src = 0;
        while (reader.next(e, &src))
            writer.append(e, src);
        writer.finish();
        std::printf("%s: %" PRIu64 " records (dtrc -> dtrc)\n",
                    out.c_str(), writer.numRecords());
        return 0;
    }

    if (from == TraceFormat::Text && to == TraceFormat::Dtrc) {
        auto entries = loadTrace(in);
        // Hand-written schedules are intent traces, not captures: no
        // live-capture flag, so replay keeps slip-on-stall semantics.
        TraceWriter writer(out);
        for (const TraceEntry &e : entries)
            writer.append(e);
        writer.finish();
        std::printf("%s: %" PRIu64 " records (text -> dtrc)\n",
                    out.c_str(), writer.numRecords());
        return 0;
    }

    if (from == TraceFormat::Dtrc && to == TraceFormat::Text) {
        TraceReader reader(in);
        if (reader.info().numSources > 1)
            warn("'%s' has %u sources; the text format cannot carry "
                 "source ids, so they are dropped",
                 in.c_str(), reader.info().numSources);
        if ((reader.info().flags & kTraceFlagLiveCapture) != 0)
            warn("'%s' is a live capture; the text format cannot "
                 "carry that flag, so a replay of '%s' will slip on "
                 "stalls instead of reproducing the captured run",
                 in.c_str(), out.c_str());
        std::FILE *f = std::fopen(out.c_str(), "w");
        if (f == nullptr)
            fatal("cannot write trace file '%s'", out.c_str());
        std::fprintf(f, "# tick r|w addr size\n");
        TraceEntry e;
        std::uint64_t n = 0;
        while (reader.next(e)) {
            std::fprintf(f, "%" PRIu64 " %c 0x%" PRIx64 " %u\n",
                         e.tick, e.isRead ? 'r' : 'w',
                         static_cast<std::uint64_t>(e.addr), e.size);
            ++n;
        }
        std::fclose(f);
        std::printf("%s: %" PRIu64 " records (dtrc -> text)\n",
                    out.c_str(), n);
        return 0;
    }

    // text -> text: parse (validating) and re-emit canonically.
    saveTrace(out, loadTrace(in));
    std::printf("%s: rewritten (text -> text)\n", out.c_str());
    return 0;
}

int
cmdStat(const std::string &path)
{
    TraceFormat fmt = traceFormatOf(path);
    if (fmt == TraceFormat::Text) {
        auto entries = loadTrace(path);
        Tick last = entries.empty() ? 0 : entries.back().tick;
        std::printf("format:      text\n"
                    "records:     %zu\n"
                    "lastTick:    %" PRIu64 " (%.3f us)\n",
                    entries.size(), last, toNs(last) / 1e3);
        return 0;
    }

    TraceReader reader(path);
    const TraceFileInfo &info = reader.info();
    std::uint64_t reads = 0, bytes = 0;
    TraceEntry e;
    while (reader.next(e)) {
        reads += e.isRead ? 1 : 0;
        bytes += e.size;
    }
    double secs = static_cast<double>(info.lastTick) /
                  static_cast<double>(info.ticksPerSecond);
    std::printf("format:      dtrc v%u\n"
                "records:     %" PRIu64 "\n"
                "sources:     %u\n"
                "flags:       0x%x%s\n"
                "clock:       %" PRIu64 " ticks/s\n"
                "lastTick:    %" PRIu64 " (%.3f us)\n"
                "reads:       %" PRIu64 " (%.1f%%)\n"
                "bytes:       %" PRIu64 "\n"
                "crc32:       %08x\n",
                info.version, info.recordCount, info.numSources,
                info.flags,
                (info.flags & kTraceFlagLiveCapture) != 0
                    ? " (live capture)"
                    : "",
                info.ticksPerSecond, info.lastTick, secs * 1e6, reads,
                info.recordCount > 0
                    ? 100.0 * static_cast<double>(reads) /
                          static_cast<double>(info.recordCount)
                    : 0.0,
                bytes, info.crc);
    if (secs > 0)
        std::printf("avg rate:    %.2f Mreq/s simulated, %.2f GB/s\n",
                    static_cast<double>(info.recordCount) / secs / 1e6,
                    static_cast<double>(bytes) / secs / 1e9);
    return 0;
}

int
cmdHead(const std::string &path, std::uint64_t n)
{
    if (traceFormatOf(path) == TraceFormat::Text) {
        auto entries = loadTrace(path);
        for (std::size_t i = 0; i < entries.size() && i < n; ++i) {
            const TraceEntry &e = entries[i];
            std::printf("%" PRIu64 " %c 0x%" PRIx64 " %u\n", e.tick,
                        e.isRead ? 'r' : 'w',
                        static_cast<std::uint64_t>(e.addr), e.size);
        }
        return 0;
    }
    TraceReader reader(path);
    TraceEntry e;
    unsigned src = 0;
    bool multi = reader.info().numSources > 1;
    for (std::uint64_t i = 0; i < n && reader.next(e, &src); ++i) {
        std::printf("%" PRIu64 " %c 0x%" PRIx64 " %u", e.tick,
                    e.isRead ? 'r' : 'w',
                    static_cast<std::uint64_t>(e.addr), e.size);
        if (multi)
            std::printf(" # src %u", src);
        std::printf("\n");
    }
    return 0;
}

int
cmdValidate(const std::string &path)
{
    // Structure and CRC are checked on open (fatal() on any defect);
    // walking the records additionally exercises the full decode path.
    if (traceFormatOf(path) == TraceFormat::Text) {
        auto entries = loadTrace(path);
        std::printf("%s: OK (text, %zu records)\n", path.c_str(),
                    entries.size());
        return 0;
    }
    TraceReader reader(path, /*verify_crc=*/true);
    TraceEntry e;
    std::uint64_t n = 0;
    while (reader.next(e))
        ++n;
    if (n != reader.info().recordCount)
        fatal("trace '%s': decoded %" PRIu64 " records but the header "
              "declares %" PRIu64,
              path.c_str(), n, reader.info().recordCount);
    std::printf("%s: OK (dtrc, %" PRIu64 " records, crc %08x)\n",
                path.c_str(), n, reader.info().crc);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(argv[0]);
    std::string cmd = argv[1];

    if (cmd == "convert") {
        if (argc != 4)
            return usage(argv[0]);
        return cmdConvert(argv[2], argv[3]);
    }
    if (cmd == "stat") {
        if (argc != 3)
            return usage(argv[0]);
        return cmdStat(argv[2]);
    }
    if (cmd == "head") {
        if (argc != 3 && !(argc == 5 && std::strcmp(argv[3], "-n") == 0))
            return usage(argv[0]);
        std::uint64_t n = 10;
        if (argc == 5)
            n = cli::parseUInt("-n", argv[4]);
        return cmdHead(argv[2], n);
    }
    if (cmd == "validate") {
        if (argc != 3)
            return usage(argv[0]);
        return cmdValidate(argv[2]);
    }
    return usage(argv[0]);
}
