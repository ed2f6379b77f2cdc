/**
 * @file
 * Versioned, schema-checked checkpoint serialization.
 *
 * A checkpoint is a flat binary stream: a file header (magic + format
 * version) followed by named sections, one per simulated object plus
 * two bookkeeping sections ("sim" and "stats"). Every section carries
 * its own version tag, payload length and CRC32, so a truncated or
 * corrupted snapshot fails with a fatal() naming the bad section
 * instead of misbehaving downstream. Section payloads are sequences of
 * self-describing tagged records (type, key, value), which is what
 * makes the JSON debug dump and forward-compatible readers possible:
 * a newer writer can add keys and an older reader skips them; a newer
 * reader uses getOr*() defaults for keys an older writer lacked.
 *
 * Restoring is a two-phase protocol. Components read their plain state
 * immediately but *defer* event reconstruction: getEvent() records the
 * event's saved tick and its global service rank, and finalizeEvents()
 * re-schedules all of them in rank order once every section is read.
 * Scheduling in rank order hands out fresh queue sequence numbers in
 * exactly the original relative order, so same-tick/same-priority ties
 * break identically and the resumed run is byte-identical to the
 * uninterrupted one.
 */

#ifndef DRAMCTRL_CKPT_CKPT_H
#define DRAMCTRL_CKPT_CKPT_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <unordered_map>
#include <vector>

#include "ckpt/serializable.hh"
#include "sim/eventq.hh"
#include "sim/types.hh"

namespace dramctrl {

class Packet;
class Simulator;

namespace ckpt {

/** Checkpoint stream format version written by this build. */
// Version 2: packet records carry the latency-attribution span and
// stats sections include the per-stage latency histograms.
// Version 3: the crossbar ports store credit pools (credits home plus
// the due ticks of returns in flight) instead of credit inboxes.
constexpr std::uint32_t kFormatVersion = 3;

/** CRC32 (IEEE 802.3 polynomial) of @p len bytes at @p data. */
std::uint32_t crc32(const void *data, std::size_t len);

/**
 * Incremental CRC32: fold @p len bytes into a running @p crc. Start
 * from 0xFFFFFFFF and XOR the final value with 0xFFFFFFFF to match
 * crc32() (which is exactly this, in one call).
 */
std::uint32_t crc32Update(std::uint32_t crc, const void *data,
                          std::size_t len);

/** FNV-1a 64-bit hash, used for configuration fingerprints. */
std::uint64_t fnv1a(const void *data, std::size_t len);
std::uint64_t fnv1a(const std::string &s);

/** Tag of one record inside a section payload. */
enum class RecordType : std::uint8_t {
    U64 = 1,
    I64 = 2,
    F64 = 3,
    Bool = 4,
    Str = 5,
    Bytes = 6,
    U64Vec = 7,
    F64Vec = 8,
};

/**
 * Checkpoint writer. Usage: beginSection(), a series of put*() calls,
 * endSection(); repeat per component. The section payload is buffered
 * so the header can carry its length and CRC.
 */
class CkptOut
{
  public:
    /** Writes the file header immediately. */
    explicit CkptOut(std::ostream &os);

    CkptOut(const CkptOut &) = delete;
    CkptOut &operator=(const CkptOut &) = delete;

    void beginSection(const std::string &name,
                      std::uint32_t version = 1);
    void endSection();

    void putU64(const std::string &key, std::uint64_t v);
    void putI64(const std::string &key, std::int64_t v);
    void putF64(const std::string &key, double v);
    void putBool(const std::string &key, bool v);
    void putStr(const std::string &key, const std::string &v);
    void putBytes(const std::string &key, const void *data,
                  std::size_t len);
    void putU64Vec(const std::string &key,
                   const std::vector<std::uint64_t> &v);
    void putF64Vec(const std::string &key,
                   const std::vector<double> &v);

    /** Ticks are plain u64s; a named alias for readability. */
    void putTick(const std::string &key, Tick t) { putU64(key, t); }

    /**
     * Record @p ev's scheduling state: whether it is on @p eq, its
     * tick, and its global service rank among all scheduled events
     * (the key to reconstructing same-tick ordering on restore).
     */
    void putEvent(const std::string &key, const EventQueue &eq,
                  const Event &ev);

    /**
     * Serialize @p pkt (null allowed) preserving its id, so packet
     * identity — visible in traces — survives a save/load cycle.
     */
    void putPacket(const std::string &key, const Packet *pkt);

  private:
    void record(RecordType type, const std::string &key);

    std::ostream &os_;
    std::string payload_;
    std::string sectionName_;
    std::uint32_t sectionVersion_ = 0;
    bool inSection_ = false;
};

/**
 * Checkpoint reader. The constructor parses and CRC-checks the whole
 * stream up front (any structural damage is reported immediately with
 * the offending section's name); components then open their section by
 * name and read keys in any order.
 */
class CkptIn
{
  public:
    explicit CkptIn(std::istream &is);

    CkptIn(const CkptIn &) = delete;
    CkptIn &operator=(const CkptIn &) = delete;

    bool hasSection(const std::string &name) const;

    /** Make @p name the current section; fatal() when absent. */
    void openSection(const std::string &name);

    /** Version tag of the current section. */
    std::uint32_t sectionVersion() const;

    /** True when the current section holds @p key. */
    bool has(const std::string &key) const;

    /** Strict getters: fatal() on a missing key or type mismatch. */
    std::uint64_t getU64(const std::string &key) const;
    std::int64_t getI64(const std::string &key) const;
    double getF64(const std::string &key) const;
    bool getBool(const std::string &key) const;
    const std::string &getStr(const std::string &key) const;
    const std::string &getBytes(const std::string &key) const;
    const std::vector<std::uint64_t> &
    getU64Vec(const std::string &key) const;
    const std::vector<double> &getF64Vec(const std::string &key) const;

    Tick getTick(const std::string &key) const { return getU64(key); }

    /** Forward-compat getters: default when the key is absent. */
    std::uint64_t getOrU64(const std::string &key,
                           std::uint64_t def) const;
    double getOrF64(const std::string &key, double def) const;
    bool getOrBool(const std::string &key, bool def) const;

    /**
     * Read an event record written by putEvent(). If the event was
     * scheduled, its reconstruction is deferred: @p ev is remembered
     * together with its saved tick and rank, and actually scheduled by
     * finalizeEvents(). @p ev must outlive this reader.
     */
    void getEvent(const std::string &key, EventQueue &eq, Event &ev);

    /** Recreate a packet written by putPacket() (null allowed). */
    Packet *getPacket(const std::string &key) const;

    /**
     * Schedule every deferred event on @p eq in saved service-rank
     * order. Call exactly once, after every section has been read and
     * after the queue's current tick has been restored.
     */
    void finalizeEvents();

  private:
    struct Value
    {
        RecordType type = RecordType::U64;
        std::uint64_t u64 = 0;
        std::int64_t i64 = 0;
        double f64 = 0;
        bool b = false;
        std::string str;
        std::vector<std::uint64_t> u64vec;
        std::vector<double> f64vec;
    };

    struct Section
    {
        std::string name;
        std::uint32_t version = 0;
        std::vector<std::pair<std::string, Value>> records;
        std::unordered_map<std::string, std::size_t> index;
    };

    struct DeferredEvent
    {
        std::uint64_t rank;
        Tick when;
        EventQueue *eq;
        Event *ev;
    };

    const Value &lookup(const std::string &key, RecordType type) const;
    const Value *find(const std::string &key) const;

    std::vector<Section> sections_;
    std::unordered_map<std::string, std::size_t> sectionIndex_;
    const Section *cur_ = nullptr;
    std::vector<DeferredEvent> deferred_;
    bool finalized_ = false;

    // The JSON debug dump walks the parsed sections directly.
    friend void dumpJson(std::istream &is, std::ostream &os);
};

/** Write a configuration fingerprint for later verification. */
void putCheck(CkptOut &out, const std::string &key,
              std::uint64_t value);

/**
 * Compare a fingerprint recorded by putCheck() against the value the
 * restoring object computed; fatal() naming @p what on mismatch.
 */
void verifyCheck(CkptIn &in, const std::string &key,
                 std::uint64_t value, const char *what);

/**
 * Snapshot the full simulator (event queue time, packet-id stream,
 * statistics tree, and every registered object's section) to @p os.
 */
void save(Simulator &sim, std::ostream &os);
void saveFile(Simulator &sim, const std::string &path);
std::string saveToString(Simulator &sim);

/**
 * Restore a snapshot written by save() into @p sim, which must be a
 * freshly constructed simulator assembled with the same configuration
 * (same objects, names and parameters). After restore, startup() is
 * suppressed and run() continues from the saved tick, reproducing the
 * uninterrupted run byte-for-byte.
 */
void restore(Simulator &sim, std::istream &is);
void restoreFile(Simulator &sim, const std::string &path);
void restoreFromString(Simulator &sim, const std::string &buf);

/** Human-readable JSON dump of a checkpoint stream (debug form). */
void dumpJson(std::istream &is, std::ostream &os);
void dumpJsonFile(const std::string &path, std::ostream &os);

} // namespace ckpt
} // namespace dramctrl

#endif // DRAMCTRL_CKPT_CKPT_H
