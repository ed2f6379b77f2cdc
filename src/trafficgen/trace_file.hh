/**
 * @file
 * Binary trace format (.dtrc) with mmap streaming ingestion.
 *
 * The text format in trace.hh is convenient to read and edit, but
 * parsing it tops out far below what the batch engine can replay, and
 * loading it materialises the whole trace in memory. The .dtrc format
 * is the high-throughput twin: fixed-width little-endian records that
 * decode with a handful of shifts, streamed straight off an mmap so a
 * multi-gigabyte trace replays in O(1) resident memory.
 *
 * File layout (all integers little-endian, following the src/ckpt
 * stream conventions — explicit byte order, magic numbers, CRC):
 *
 *   header  (40 bytes)
 *     u32  magic            "DTRC" (0x43525444)
 *     u32  version          1
 *     u64  ticksPerSecond   clock domain of the tick values
 *     u64  recordCount      patched on finish(); ~0 while streaming
 *     u32  numSources       distinct source-port ids (max id + 1)
 *     u32  flags            bit 0: live capture (timestamps carry the
 *                           captured run's backpressure; replay must
 *                           not slip on stalls); other bits reserved
 *     u64  reserved         0
 *   records (16 bytes each)
 *     u64  word0            bits 0..55  tick delta to previous record
 *                           bits 56..63 source id (front-port index)
 *     u64  word1            bits 0..47  address
 *                           bits 48..62 request size in bytes
 *                           bit  63     1 = read, 0 = write
 *   footer  (24 bytes)
 *     u32  magic            "DEND" (0x444e4544)
 *     u32  crc32            IEEE CRC32 over all record bytes
 *     u64  recordCount      must match the header
 *     u64  lastTick         absolute tick of the final record
 *
 * Ticks are stored as deltas, which makes every well-formed file
 * monotonic by construction and keeps the common small gaps dense.
 * The limits implied by the packing (tick gaps below 2^56 ticks,
 * addresses below 2^48, sizes below 2^15, at most 256 source ports)
 * are checked at write time with a fatal() naming the offender.
 */

#ifndef DRAMCTRL_TRAFFICGEN_TRACE_FILE_H
#define DRAMCTRL_TRAFFICGEN_TRACE_FILE_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "trafficgen/trace.hh"

namespace dramctrl {

constexpr std::uint32_t kTraceMagic = 0x43525444;    // "DTRC"
constexpr std::uint32_t kTraceEndMagic = 0x444e4544; // "DEND"
constexpr std::uint32_t kTraceVersion = 1;
constexpr std::size_t kTraceHeaderSize = 40;
constexpr std::size_t kTraceRecordSize = 16;
constexpr std::size_t kTraceFooterSize = 24;

/**
 * Header flag: the trace was captured from a live run, so its
 * timestamps are the packets' injection ticks and already include the
 * backpressure the original requestors experienced. Replay disables
 * slip-on-stall for such traces (see TracePlayerConfig::slipOnStall)
 * and thereby reproduces the captured run's controller statistics.
 */
constexpr std::uint32_t kTraceFlagLiveCapture = 1u << 0;

constexpr std::uint64_t kMaxTraceTickDelta = (1ULL << 56) - 1;
constexpr Addr kMaxTraceAddr = (1ULL << 48) - 1;
constexpr unsigned kMaxTraceReqSize = (1u << 15) - 1;
constexpr unsigned kMaxTraceSources = 256;

/** Parsed header + footer of a .dtrc file. */
struct TraceFileInfo
{
    std::uint32_t version = kTraceVersion;
    std::uint64_t ticksPerSecond = kTicksPerSecond;
    std::uint64_t recordCount = 0;
    std::uint32_t numSources = 1;
    std::uint32_t flags = 0;
    std::uint64_t lastTick = 0;
    std::uint32_t crc = 0;
};

/**
 * Streaming .dtrc writer: append entries in tick order, finish() (or
 * destroy) to seal the file with the footer and patch the header's
 * record count. Appends are buffered, so per-record cost is a couple
 * of stores; the CRC is maintained incrementally.
 */
class TraceWriter
{
  public:
    explicit TraceWriter(const std::string &path,
                         std::uint64_t ticks_per_second =
                             kTicksPerSecond,
                         std::uint32_t flags = 0);
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    /**
     * Append one request. @p src is the originating front-port index
     * (0 for single-requestor streams). Entries must arrive in
     * non-decreasing tick order; a backwards tick is fatal().
     */
    void append(const TraceEntry &e, unsigned src = 0);

    /** Seal the file: flush records, write the footer, patch the
     *  header. Idempotent; also run by the destructor. */
    void finish();

    std::uint64_t numRecords() const { return count_; }
    const std::string &path() const { return path_; }

  private:
    void flushBuffer();

    std::string path_;
    std::FILE *file_ = nullptr;
    std::string buffer_;
    std::uint64_t ticksPerSecond_;
    std::uint64_t count_ = 0;
    Tick lastTick_ = 0;
    unsigned maxSrc_ = 0;
    std::uint32_t crc_ = 0xFFFFFFFFu;
    bool finished_ = false;
};

/**
 * Streaming .dtrc reader. Maps the file, validates its structure
 * (magic, version, sizes, header/footer consistency) and — unless
 * told not to — verifies the record CRC up front, then decodes
 * records one next() call at a time without ever materialising the
 * trace: it walks a SEQUENTIAL-advised mapping and releases consumed
 * windows with MADV_DONTNEED, so resident memory stays O(1) however
 * large the file is. A file that cannot be mapped is a fatal().
 */
class TraceReader
{
  public:
    explicit TraceReader(const std::string &path, bool verify_crc = true);
    ~TraceReader();

    TraceReader(const TraceReader &) = delete;
    TraceReader &operator=(const TraceReader &) = delete;

    const TraceFileInfo &info() const { return info_; }
    const std::string &path() const { return path_; }

    /**
     * Decode the next record into @p e (absolute tick) and optionally
     * its source id. @return false at end of stream.
     */
    bool next(TraceEntry &e, unsigned *src = nullptr);

    /** Rewind to the first record. */
    void reset();

    /** Records consumed so far. */
    std::uint64_t position() const { return pos_; }

  private:
    void verifyStructure();
    std::uint32_t computeCrc();

    std::string path_;
    TraceFileInfo info_;
    int fd_ = -1;
    const unsigned char *map_ = nullptr; ///< whole-file mapping
    std::size_t mapSize_ = 0;
    std::size_t released_ = 0; ///< bytes already MADV_DONTNEED'd

    std::uint64_t pos_ = 0; ///< records consumed
    Tick tick_ = 0;         ///< running absolute tick
};

/** Trace file flavours, detected by content (magic), not extension. */
enum class TraceFormat { Text, Dtrc };

/** Sniff @p path's format by its first bytes; fatal() if unreadable. */
TraceFormat traceFormatOf(const std::string &path);

/** Pick a format for a file to be written: .txt => Text, else Dtrc. */
TraceFormat traceFormatForOutput(const std::string &path);

/** Fully load a .dtrc file (validating the CRC). Sources discarded. */
std::vector<TraceEntry> loadTraceDtrc(const std::string &path);

/** Load either format, dispatching on the file's magic bytes. */
std::vector<TraceEntry> loadTraceAuto(const std::string &path);

/** Write @p entries (single source) as a .dtrc file. */
void saveTraceDtrc(const std::string &path,
                   const std::vector<TraceEntry> &entries);

/**
 * Build a player configuration for @p path, either format. A .dtrc
 * source streams (optionally filtered to @p src_filter); a text trace
 * is materialised. Live-captured files (kTraceFlagLiveCapture) get
 * slipOnStall = false so replay reproduces the captured run.
 */
TracePlayerConfig makeTracePlayerConfig(const std::string &path,
                                        double time_scale = 1.0,
                                        int src_filter = -1);

/**
 * A streamed .dtrc file, optionally filtered to one source id (the
 * multi-channel fan-out: player i replays only the records source i
 * produced, all players walking the same file).
 */
class DtrcTraceSource : public TraceSource
{
  public:
    /** @param src_filter -1 = every record, else only this source. */
    explicit DtrcTraceSource(const std::string &path,
                             int src_filter = -1,
                             bool verify_crc = true);

    bool peek(TraceEntry &e) override;
    void advance() override;
    std::uint64_t position() const override { return pos_; }
    void seek(std::uint64_t n) override;
    std::uint64_t fingerprint() const override;

    const TraceReader &reader() const { return reader_; }

  private:
    /** Advance the reader to the next matching record. */
    void fill();

    TraceReader reader_;
    int srcFilter_;
    TraceEntry cached_{};
    bool cachedValid_ = false;
    bool exhausted_ = false;
    std::uint64_t pos_ = 0; ///< matching entries consumed
};

} // namespace dramctrl

#endif // DRAMCTRL_TRAFFICGEN_TRACE_FILE_H
