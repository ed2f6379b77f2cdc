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
 * makes the JSON debug dump possible. A reader accepts exactly the
 * format version it writes.
 *
 * Every object states its records once, in a walk over an Io (below)
 * that writes them when saving and reads them back when restoring.
 *
 * Restoring is a two-phase protocol. Components read their plain state
 * immediately but *defer* event reconstruction: Io::event() records the
 * event's saved tick and its global service rank, and finalizeEvents()
 * re-schedules all of them in rank order once every section is read.
 * Scheduling in rank order hands out fresh queue sequence numbers in
 * exactly the original relative order, so same-tick/same-priority ties
 * break identically and the resumed run is byte-identical to the
 * uninterrupted one.
 */

#ifndef DRAMCTRL_CKPT_CKPT_H
#define DRAMCTRL_CKPT_CKPT_H

#include <array>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <tuple>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ckpt/serializable.hh"
#include "sim/eventq.hh"
#include "sim/logging.hh"
#include "sim/ring_buffer.hh"
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
// Version 4: the generators' latency histograms are tick histograms
// (the controller's duplicate read-latency histogram is gone).
// Version 5: the controllers' response queues and the crossbar inboxes
// share one walk (PacketQueue::checkpoint()).
// Version 6: the event controller no longer records starvation flags
// or the top QoS tier; both are derived.
// Version 7: the cycle controller ticks every cycle, so it no longer
// records its ticking flag, idle-start cycle or ticked-cycle count.
constexpr std::uint32_t kFormatVersion = 8;

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
    F64 = 3,
    Bool = 4,
    U64Vec = 7,
    F64Vec = 8,
};

/**
 * Checkpoint writer: the file header at construction, then one
 * beginSection()/endSection() pair per section around the records an
 * Io writes. The section payload is buffered so the header can carry
 * its length and CRC.
 */
class CkptOut
{
  public:
    /** Writes the file header immediately. */
    explicit CkptOut(std::ostream &os);

    CkptOut(const CkptOut &) = delete;
    CkptOut &operator=(const CkptOut &) = delete;

    void beginSection(const std::string &name);
    void endSection();

  private:
    friend class Io;

    void record(RecordType type, const std::string &key);
    void putU64(const std::string &key, std::uint64_t v);
    void putF64(const std::string &key, double v);
    void putBool(const std::string &key, bool v);
    void putU64Vec(const std::string &key,
                   const std::vector<std::uint64_t> &v);
    void putF64Vec(const std::string &key,
                   const std::vector<double> &v);

    std::ostream &os_;
    std::string payload_;
    std::string sectionName_;
    bool inSection_ = false;
};

/**
 * Checkpoint reader. The constructor refuses any format version but
 * kFormatVersion, then parses and CRC-checks the whole stream up front
 * (any structural damage is reported immediately with the offending
 * section's name); an Io then opens each section by name and reads
 * its keys in any order.
 */
class CkptIn
{
  public:
    explicit CkptIn(std::istream &is);

    CkptIn(const CkptIn &) = delete;
    CkptIn &operator=(const CkptIn &) = delete;

    /** Make @p name the current section; fatal() when absent. */
    void openSection(const std::string &name);

    /**
     * Schedule every event an Io deferred, in saved service-rank
     * order. Call exactly once, after every section has been read and
     * after the queues' current ticks have been restored.
     */
    void finalizeEvents();

  private:
    friend class Io;
    // The JSON debug dump walks the parsed sections directly.
    friend void dumpJson(std::istream &is, std::ostream &os);

    struct Value
    {
        RecordType type = RecordType::U64;
        std::uint64_t u64 = 0;
        double f64 = 0;
        bool b = false;
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

    /** The current section's record @p key; fatal() unless a @p type. */
    const Value &lookup(const std::string &key, RecordType type) const;

    std::vector<Section> sections_;
    std::unordered_map<std::string, std::size_t> sectionIndex_;
    const Section *cur_ = nullptr;
    std::vector<DeferredEvent> deferred_;
    bool finalized_ = false;
};

/**
 * One walk over an object's checkpointed state, used in both
 * directions. A saving Io writes each field it is handed as a record
 * of the open section; a restoring Io reads the record of the same key
 * back into the same field. An object therefore names each key once,
 * in its checkpoint(Io &) method, and the walk's order is the order
 * the records are written in. Checkpointing a new field is one more
 * line in that walk.
 *
 * Integers, enums and ticks are u64 records, flags bool records,
 * doubles f64 records; lanes, lists, rings, tables, field groups,
 * pairs, packets and events are u64-vector records. A restoring Io
 * refuses a missing record, or one of the wrong type or length, with a
 * fatal() naming the section and the key.
 *
 * Only the walks that rebuild owned or shared objects (packets held
 * by several queue entries, transactions referenced from several
 * command rings, ...) need restoring() to tell the directions apart.
 */
class Io
{
  public:
    explicit Io(CkptOut &out) : out_(&out) {}
    explicit Io(CkptIn &in) : in_(&in) {}

    /** True when reading a checkpoint back, false when writing one. */
    bool restoring() const { return in_ != nullptr; }

    /** Walk @p body inside section @p name. */
    template <typename Body>
    void
    section(const std::string &name, Body body)
    {
        if (in_ != nullptr)
            in_->openSection(name);
        else
            out_->beginSection(name);
        body();
        if (out_ != nullptr)
            out_->endSection();
    }

    /** An integer or enum field. */
    template <typename T>
    void
    u64(const std::string &key, T &v)
    {
        static_assert(!std::is_same_v<T, bool>, "a bool is a flag()");
        if (in_ != nullptr)
            v = static_cast<T>(in_->lookup(key, RecordType::U64).u64);
        else
            out_->putU64(key, static_cast<std::uint64_t>(v));
    }

    void tick(const std::string &key, Tick &v) { u64(key, v); }
    void flag(const std::string &key, bool &v);
    void f64(const std::string &key, double &v);

    /**
     * A configuration fingerprint (or any value the restoring system
     * computes for itself): written when saving, compared when
     * restoring, where a mismatch is a fatal() naming @p what.
     */
    void check(const std::string &key, std::uint64_t value,
               const std::string &what);

    /**
     * @p rows rows of fields as one record: @p row(i) returns
     * std::tie() of row i's fields, in record order. A restore needs
     * exactly rows x fields words.
     */
    template <typename Row>
    void
    table(const std::string &key, std::size_t rows, Row row)
    {
        constexpr std::size_t width =
            std::tuple_size_v<decltype(row(std::size_t(0)))>;
        if (in_ != nullptr) {
            const auto &w = words(key);
            if (w.size() != rows * width)
                badShape(key, formatString("holds %zu words, expected %zu",
                                           w.size(), rows * width));
            std::size_t k = 0;
            for (std::size_t i = 0; i < rows; ++i)
                std::apply(
                    [&](auto &...f) {
                        ((f = static_cast<std::decay_t<decltype(f)>>(
                              w[k++])),
                         ...);
                    },
                    row(i));
        } else {
            std::vector<std::uint64_t> w;
            w.reserve(rows * width);
            for (std::size_t i = 0; i < rows; ++i)
                std::apply(
                    [&](auto &...f) {
                        (w.push_back(static_cast<std::uint64_t>(f)), ...);
                    },
                    row(i));
            out_->putU64Vec(key, w);
        }
    }

    /** Several fields as one record. */
    template <typename... Fields>
    void
    fields(const std::string &key, Fields &...f)
    {
        table(key, 1, [&](std::size_t) { return std::tie(f...); });
    }

    /** A vector whose length the configuration fixes. */
    template <typename T>
    void
    lanes(const std::string &key, std::vector<T> &v)
    {
        table(key, v.size(), [&v](std::size_t i) { return std::tie(v[i]); });
    }

    /** Double lanes, as an f64-vector record. */
    void lanes(const std::string &key, std::vector<double> &v);

    /**
     * A vector whose length is state, one row of fields per element:
     * @p row(e) returns std::tie() of element e's fields. A restore
     * resizes @p v to the saved row count.
     */
    template <typename T, typename Row>
    void
    rows(const std::string &key, std::vector<T> &v, Row row)
    {
        if (in_ != nullptr) {
            constexpr std::size_t width =
                std::tuple_size_v<decltype(row(std::declval<T &>()))>;
            const auto &w = words(key);
            if (w.size() % width != 0)
                badShape(key, formatString("holds %zu words, not rows of "
                                           "%zu",
                                           w.size(), width));
            v.resize(w.size() / width);
        }
        table(key, v.size(), [&](std::size_t i) { return row(v[i]); });
    }

    /** A vector of integers whose length is state. */
    template <typename T>
    void
    list(const std::string &key, std::vector<T> &v)
    {
        rows(key, v, [](T &x) { return std::tie(x); });
    }

    /** A ring's elements, front first; a restore fits its capacity. */
    template <typename T>
    void
    ring(const std::string &key, RingBuffer<T> &r)
    {
        if (in_ != nullptr) {
            const auto &w = words(key);
            if (w.size() > r.capacity())
                badShape(key, formatString("holds %zu entries, capacity "
                                           "is %zu",
                                           w.size(), r.capacity()));
            r.clear();
            for (std::uint64_t x : w)
                r.push_back(static_cast<T>(x));
        } else {
            std::vector<std::uint64_t> w;
            w.reserve(r.size());
            for (std::size_t i = 0; i < r.size(); ++i)
                w.push_back(r[i]);
            out_->putU64Vec(key, w);
        }
    }

    /** A map as [key, value, key, value, ...] in key order. */
    template <typename T>
    void
    pairs(const std::string &key, std::map<std::uint64_t, T> &m)
    {
        if (in_ != nullptr) {
            const auto &w = pairWords(key);
            m.clear();
            for (std::size_t i = 0; i < w.size(); i += 2)
                m[w[i]] = static_cast<T>(w[i + 1]);
        } else {
            std::vector<std::uint64_t> w;
            w.reserve(m.size() * 2);
            for (const auto &[k, v] : m) {
                w.push_back(k);
                w.push_back(v);
            }
            out_->putU64Vec(key, w);
        }
    }

    /** The non-zero entries of @p a as [index, value, ...] pairs. */
    template <std::size_t N>
    void
    pairs(const std::string &key, std::array<std::uint64_t, N> &a)
    {
        if (in_ != nullptr) {
            const auto &w = pairWords(key);
            a.fill(0);
            for (std::size_t i = 0; i < w.size(); i += 2) {
                if (w[i] >= N)
                    badShape(key, formatString("names entry %llu of %zu",
                                               static_cast<unsigned long long>(
                                                   w[i]),
                                               N));
                a[w[i]] = w[i + 1];
            }
        } else {
            std::vector<std::uint64_t> w;
            for (std::size_t i = 0; i < N; ++i) {
                if (a[i] == 0)
                    continue;
                w.push_back(i);
                w.push_back(a[i]);
            }
            out_->putU64Vec(key, w);
        }
    }

    /**
     * A packet (null allowed), keeping its id so packet identity —
     * visible in traces — survives a save/restore cycle. A restore
     * allocates the packet.
     */
    void packet(const std::string &key, Packet *&pkt);

    /**
     * @p ev's scheduling state on @p eq: whether it is scheduled, its
     * tick, and its service rank among all scheduled events (the key
     * to reproducing same-tick order). A restore defers scheduling to
     * CkptIn::finalizeEvents(); @p ev must outlive the reader.
     */
    void event(const std::string &key, EventQueue &eq, Event &ev);

  private:
    /** The u64-vector record @p key of the section being restored. */
    const std::vector<std::uint64_t> &words(const std::string &key) const;

    /** words(@p key), which must hold an even number of words. */
    const std::vector<std::uint64_t> &
    pairWords(const std::string &key) const;

    /** fatal(): record @p key of the current section @p problem. */
    [[noreturn]] void badShape(const std::string &key,
                               const std::string &problem) const;

    CkptOut *out_ = nullptr;
    CkptIn *in_ = nullptr;
};

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
