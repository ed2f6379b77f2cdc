#include "ckpt/ckpt.hh"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "mem/packet.hh"
#include "sim/logging.hh"
#include "sim/sim_object.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"

namespace dramctrl {
namespace ckpt {

namespace {

constexpr std::uint32_t kFileMagic = 0x504B4344; // "DCKP"
constexpr std::uint32_t kSectionMagic = 0x54434553; // "SECT"

// All on-disk integers are little-endian, written byte by byte so the
// format does not depend on host endianness or struct layout.

void
appendU8(std::string &b, std::uint8_t v)
{
    b.push_back(static_cast<char>(v));
}

void
appendU16(std::string &b, std::uint16_t v)
{
    appendU8(b, v & 0xff);
    appendU8(b, v >> 8);
}

void
appendU32(std::string &b, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        appendU8(b, (v >> (8 * i)) & 0xff);
}

void
appendU64(std::string &b, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        appendU8(b, (v >> (8 * i)) & 0xff);
}

void
appendF64(std::string &b, double v)
{
    std::uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    appendU64(b, bits);
}

/** Bounds-checked reader over a byte buffer; reports via @p onError. */
struct Cursor
{
    const unsigned char *data;
    std::size_t size;
    std::size_t pos = 0;

    bool ok(std::size_t n) const { return pos + n <= size; }

    std::uint8_t
    u8()
    {
        return data[pos++];
    }

    std::uint16_t
    u16()
    {
        std::uint16_t v = static_cast<std::uint16_t>(data[pos]) |
                          static_cast<std::uint16_t>(data[pos + 1]) << 8;
        pos += 2;
        return v;
    }

    std::uint32_t
    u32()
    {
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(data[pos + i]) << (8 * i);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(data[pos + i]) << (8 * i);
        pos += 8;
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }
};

const char *
typeName(RecordType t)
{
    switch (t) {
      case RecordType::U64: return "u64";
      case RecordType::F64: return "f64";
      case RecordType::Bool: return "bool";
      case RecordType::U64Vec: return "u64vec";
      case RecordType::F64Vec: return "f64vec";
    }
    return "unknown";
}

} // namespace

std::uint32_t
crc32Update(std::uint32_t crc, const void *data, std::size_t len)
{
    // Slicing-by-16: sixteen derived tables let the loop fold 16
    // bytes per iteration instead of one, which matters now that the
    // CRC covers multi-gigabyte trace files, not just checkpoint
    // records. Same polynomial (IEEE 802.3, reflected) and results as
    // the classic byte-at-a-time form, which remains as the tail loop.
    static const auto tables = [] {
        std::vector<std::array<std::uint32_t, 256>> t(16);
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i)
            for (int j = 1; j < 16; ++j)
                t[j][i] =
                    (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xff];
        return t;
    }();

    const auto *p = static_cast<const unsigned char *>(data);
#if defined(__BYTE_ORDER__) && \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // The 16-byte fold loads words directly, so it is little-endian
    // only; other hosts take the (identical-result) tail loop.
    while (len >= 16) {
        std::uint32_t w0;
        std::uint32_t w1;
        std::uint32_t w2;
        std::uint32_t w3;
        std::memcpy(&w0, p, 4);
        std::memcpy(&w1, p + 4, 4);
        std::memcpy(&w2, p + 8, 4);
        std::memcpy(&w3, p + 12, 4);
        w0 ^= crc;
        crc = tables[15][w0 & 0xff] ^ tables[14][(w0 >> 8) & 0xff] ^
              tables[13][(w0 >> 16) & 0xff] ^ tables[12][w0 >> 24] ^
              tables[11][w1 & 0xff] ^ tables[10][(w1 >> 8) & 0xff] ^
              tables[9][(w1 >> 16) & 0xff] ^ tables[8][w1 >> 24] ^
              tables[7][w2 & 0xff] ^ tables[6][(w2 >> 8) & 0xff] ^
              tables[5][(w2 >> 16) & 0xff] ^ tables[4][w2 >> 24] ^
              tables[3][w3 & 0xff] ^ tables[2][(w3 >> 8) & 0xff] ^
              tables[1][(w3 >> 16) & 0xff] ^ tables[0][w3 >> 24];
        p += 16;
        len -= 16;
    }
#endif
    while (len-- > 0)
        crc = tables[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
    return crc;
}

std::uint32_t
crc32(const void *data, std::size_t len)
{
    return crc32Update(0xFFFFFFFFu, data, len) ^ 0xFFFFFFFFu;
}

std::uint64_t
fnv1a(const void *data, std::size_t len)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < len; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
fnv1a(const std::string &s)
{
    return fnv1a(s.data(), s.size());
}

//
// CkptOut
//

CkptOut::CkptOut(std::ostream &os) : os_(os)
{
    std::string header;
    appendU32(header, kFileMagic);
    appendU32(header, kFormatVersion);
    os_.write(header.data(),
              static_cast<std::streamsize>(header.size()));
}

void
CkptOut::beginSection(const std::string &name)
{
    if (inSection_)
        panic("checkpoint section '%s' opened inside '%s'",
              name.c_str(), sectionName_.c_str());
    if (name.empty() || name.size() > 0xFFFF)
        panic("bad checkpoint section name '%s'", name.c_str());
    sectionName_ = name;
    payload_.clear();
    inSection_ = true;
}

void
CkptOut::endSection()
{
    if (!inSection_)
        panic("endSection() with no open checkpoint section");

    std::string header;
    appendU32(header, kSectionMagic);
    appendU16(header, static_cast<std::uint16_t>(sectionName_.size()));
    header += sectionName_;
    appendU32(header, 1); // section version
    appendU64(header, payload_.size());
    appendU32(header, crc32(payload_.data(), payload_.size()));

    os_.write(header.data(),
              static_cast<std::streamsize>(header.size()));
    os_.write(payload_.data(),
              static_cast<std::streamsize>(payload_.size()));
    inSection_ = false;
}

void
CkptOut::record(RecordType type, const std::string &key)
{
    if (!inSection_)
        panic("checkpoint put('%s') outside any section", key.c_str());
    if (key.empty() || key.size() > 0xFFFF)
        panic("bad checkpoint key '%s'", key.c_str());
    appendU8(payload_, static_cast<std::uint8_t>(type));
    appendU16(payload_, static_cast<std::uint16_t>(key.size()));
    payload_ += key;
}

void
CkptOut::putU64(const std::string &key, std::uint64_t v)
{
    record(RecordType::U64, key);
    appendU64(payload_, v);
}

void
CkptOut::putF64(const std::string &key, double v)
{
    record(RecordType::F64, key);
    appendF64(payload_, v);
}

void
CkptOut::putBool(const std::string &key, bool v)
{
    record(RecordType::Bool, key);
    appendU8(payload_, v ? 1 : 0);
}

void
CkptOut::putU64Vec(const std::string &key,
                   const std::vector<std::uint64_t> &v)
{
    record(RecordType::U64Vec, key);
    appendU32(payload_, static_cast<std::uint32_t>(v.size()));
    for (std::uint64_t x : v)
        appendU64(payload_, x);
}

void
CkptOut::putF64Vec(const std::string &key,
                   const std::vector<double> &v)
{
    record(RecordType::F64Vec, key);
    appendU32(payload_, static_cast<std::uint32_t>(v.size()));
    for (double x : v)
        appendF64(payload_, x);
}

//
// CkptIn
//

CkptIn::CkptIn(std::istream &is)
{
    std::string buf((std::istreambuf_iterator<char>(is)),
                    std::istreambuf_iterator<char>());
    const auto *data =
        reinterpret_cast<const unsigned char *>(buf.data());
    Cursor cur{data, buf.size()};

    if (!cur.ok(8))
        fatal("checkpoint truncated in file header "
              "(%zu bytes, need 8)", buf.size());
    if (cur.u32() != kFileMagic)
        fatal("checkpoint has bad magic: not a checkpoint file");
    std::uint32_t version = cur.u32();
    if (version != kFormatVersion)
        fatal("checkpoint format version %u cannot be restored: this "
              "build reads version %u only", version, kFormatVersion);

    std::string last = "<file header>";
    while (cur.pos < cur.size) {
        if (!cur.ok(6))
            fatal("checkpoint truncated in section header after "
                  "section '%s'", last.c_str());
        if (cur.u32() != kSectionMagic)
            fatal("checkpoint corrupted after section '%s': bad "
                  "section magic", last.c_str());
        std::uint16_t name_len = cur.u16();
        if (!cur.ok(name_len))
            fatal("checkpoint truncated in section name after "
                  "section '%s'", last.c_str());
        Section sec;
        sec.name.assign(reinterpret_cast<const char *>(cur.data +
                                                       cur.pos),
                        name_len);
        cur.pos += name_len;
        if (!cur.ok(16))
            fatal("checkpoint truncated in header of section '%s'",
                  sec.name.c_str());
        sec.version = cur.u32();
        std::uint64_t payload_len = cur.u64();
        std::uint32_t stored_crc = cur.u32();
        if (!cur.ok(payload_len))
            fatal("checkpoint section '%s' truncated: %llu payload "
                  "bytes promised, %zu available",
                  sec.name.c_str(),
                  static_cast<unsigned long long>(payload_len),
                  cur.size - cur.pos);
        std::uint32_t computed =
            crc32(cur.data + cur.pos, payload_len);
        if (computed != stored_crc)
            fatal("checkpoint section '%s' is corrupted: CRC "
                  "mismatch (stored %08x, computed %08x)",
                  sec.name.c_str(), stored_crc, computed);

        // Payload verified; parse its tagged records.
        Cursor pc{cur.data + cur.pos, payload_len};
        cur.pos += payload_len;
        while (pc.pos < pc.size) {
            if (!pc.ok(3))
                fatal("checkpoint section '%s': malformed record at "
                      "offset %zu", sec.name.c_str(), pc.pos);
            auto type = static_cast<RecordType>(pc.u8());
            std::uint16_t key_len = pc.u16();
            if (!pc.ok(key_len))
                fatal("checkpoint section '%s': malformed record key "
                      "at offset %zu", sec.name.c_str(), pc.pos);
            std::string key(
                reinterpret_cast<const char *>(pc.data + pc.pos),
                key_len);
            pc.pos += key_len;

            Value val;
            val.type = type;
            switch (type) {
              case RecordType::U64:
              case RecordType::F64:
                if (!pc.ok(8))
                    fatal("checkpoint section '%s': key '%s' "
                          "truncated", sec.name.c_str(), key.c_str());
                if (type == RecordType::F64)
                    val.f64 = pc.f64();
                else
                    val.u64 = pc.u64();
                break;
              case RecordType::Bool:
                if (!pc.ok(1))
                    fatal("checkpoint section '%s': key '%s' "
                          "truncated", sec.name.c_str(), key.c_str());
                val.b = pc.u8() != 0;
                break;
              case RecordType::U64Vec:
              case RecordType::F64Vec: {
                if (!pc.ok(4))
                    fatal("checkpoint section '%s': key '%s' "
                          "truncated", sec.name.c_str(), key.c_str());
                std::uint32_t n = pc.u32();
                if (!pc.ok(std::size_t(n) * 8))
                    fatal("checkpoint section '%s': key '%s' "
                          "truncated", sec.name.c_str(), key.c_str());
                if (type == RecordType::U64Vec) {
                    val.u64vec.reserve(n);
                    for (std::uint32_t i = 0; i < n; ++i)
                        val.u64vec.push_back(pc.u64());
                } else {
                    val.f64vec.reserve(n);
                    for (std::uint32_t i = 0; i < n; ++i)
                        val.f64vec.push_back(pc.f64());
                }
                break;
              }
              default:
                fatal("checkpoint section '%s': key '%s' has unknown "
                      "record type %u (newer format?)",
                      sec.name.c_str(), key.c_str(),
                      static_cast<unsigned>(type));
            }

            if (sec.index.count(key) != 0)
                fatal("checkpoint section '%s': duplicate key '%s'",
                      sec.name.c_str(), key.c_str());
            sec.index.emplace(key, sec.records.size());
            sec.records.emplace_back(std::move(key), std::move(val));
        }

        if (sectionIndex_.count(sec.name) != 0)
            fatal("checkpoint has two sections named '%s'",
                  sec.name.c_str());
        last = sec.name;
        sectionIndex_.emplace(sec.name, sections_.size());
        sections_.push_back(std::move(sec));
    }
}

void
CkptIn::openSection(const std::string &name)
{
    auto it = sectionIndex_.find(name);
    if (it == sectionIndex_.end())
        fatal("checkpoint has no section '%s' (does the restoring "
              "system match the saved one?)", name.c_str());
    cur_ = &sections_[it->second];
}

const CkptIn::Value &
CkptIn::lookup(const std::string &key, RecordType type) const
{
    if (cur_ == nullptr)
        panic("checkpoint read of '%s' with no open section",
              key.c_str());
    auto it = cur_->index.find(key);
    if (it == cur_->index.end())
        fatal("checkpoint section '%s': missing key '%s'",
              cur_->name.c_str(), key.c_str());
    const Value *v = &cur_->records[it->second].second;
    if (v->type != type)
        fatal("checkpoint section '%s': key '%s' is %s, expected %s",
              cur_->name.c_str(), key.c_str(), typeName(v->type),
              typeName(type));
    return *v;
}

void
CkptIn::finalizeEvents()
{
    if (finalized_)
        panic("finalizeEvents() called twice on one checkpoint");
    finalized_ = true;
    // Scheduling in saved service-rank order hands out fresh sequence
    // numbers in the original relative order, so ties at the same
    // (tick, priority) resolve exactly as in the uninterrupted run.
    // Ranks are per queue (each shard numbers its own services), and a
    // global sort keeps every queue's internal order intact, so one
    // pass schedules all shards correctly.
    std::stable_sort(deferred_.begin(), deferred_.end(),
                     [](const DeferredEvent &a, const DeferredEvent &b) {
                         return a.rank < b.rank;
                     });
    for (const DeferredEvent &d : deferred_)
        d.eq->schedule(*d.ev, d.when);
    deferred_.clear();
}

//
// Io
//

void
Io::flag(const std::string &key, bool &v)
{
    if (in_ != nullptr)
        v = in_->lookup(key, RecordType::Bool).b;
    else
        out_->putBool(key, v);
}

void
Io::f64(const std::string &key, double &v)
{
    if (in_ != nullptr)
        v = in_->lookup(key, RecordType::F64).f64;
    else
        out_->putF64(key, v);
}

void
Io::lanes(const std::string &key, std::vector<double> &v)
{
    if (in_ == nullptr) {
        out_->putF64Vec(key, v);
        return;
    }
    const auto &saved = in_->lookup(key, RecordType::F64Vec).f64vec;
    if (saved.size() != v.size())
        badShape(key, formatString("holds %zu entries, expected %zu",
                                   saved.size(), v.size()));
    v = saved;
}

void
Io::check(const std::string &key, std::uint64_t value,
          const std::string &what)
{
    if (in_ == nullptr) {
        out_->putU64(key, value);
        return;
    }
    std::uint64_t saved = in_->lookup(key, RecordType::U64).u64;
    if (saved != value)
        fatal("checkpoint section '%s': %s mismatch at key '%s': the "
              "snapshot has %016llx, the restoring system computes "
              "%016llx — restore into an identically configured system",
              in_->cur_->name.c_str(), what.c_str(), key.c_str(),
              static_cast<unsigned long long>(saved),
              static_cast<unsigned long long>(value));
}

void
Io::packet(const std::string &key, Packet *&pkt)
{
    if (in_ == nullptr) {
        if (pkt == nullptr) {
            out_->putU64Vec(key, {0});
            return;
        }
        const stats::LatencySpan &sp = pkt->span();
        out_->putU64Vec(
            key, {1, pkt->id(), static_cast<std::uint64_t>(pkt->cmd()),
                  pkt->addr(), pkt->size(), pkt->requestorId(),
                  pkt->injectedTick(), sp.valid ? std::uint64_t(1) : 0,
                  sp.enqueue, sp.pick, sp.bankReady, sp.issue,
                  sp.burstStart, sp.done, sp.staticLat});
        return;
    }

    const auto &vec = words(key);
    if (vec.size() == 1 && vec[0] == 0) {
        pkt = nullptr;
        return;
    }
    if (vec.size() != 15)
        badShape(key, formatString("holds %zu words, not a packet",
                                   vec.size()));
    // Mint the packet under its original id, then put the thread's id
    // counter back (the "sim" section owns the counter's final value).
    std::uint64_t counter = Packet::nextId();
    Packet::setNextId(vec[1]);
    pkt = new Packet(static_cast<MemCmd>(vec[2]), vec[3],
                     static_cast<unsigned>(vec[4]),
                     static_cast<RequestorId>(vec[5]));
    Packet::setNextId(counter);
    pkt->setInjectedTick(vec[6]);
    stats::LatencySpan sp;
    sp.valid = vec[7] != 0;
    sp.enqueue = vec[8];
    sp.pick = vec[9];
    sp.bankReady = vec[10];
    sp.issue = vec[11];
    sp.burstStart = vec[12];
    sp.done = vec[13];
    sp.staticLat = vec[14];
    pkt->setSpan(sp);
}

void
Io::event(const std::string &key, EventQueue &eq, Event &ev)
{
    if (in_ == nullptr) {
        if (ev.scheduled())
            out_->putU64Vec(key, {1, ev.when(), eq.orderOf(ev)});
        else
            out_->putU64Vec(key, {0, 0, 0});
        return;
    }
    const auto &vec = words(key);
    if (vec.size() != 3)
        badShape(key, formatString("holds %zu words, not an event",
                                   vec.size()));
    if (ev.scheduled())
        panic("checkpoint restore of already-scheduled event '%s'",
              ev.name().c_str());
    if (vec[0] != 0)
        in_->deferred_.push_back({vec[2], vec[1], &eq, &ev});
}

const std::vector<std::uint64_t> &
Io::words(const std::string &key) const
{
    return in_->lookup(key, RecordType::U64Vec).u64vec;
}

const std::vector<std::uint64_t> &
Io::pairWords(const std::string &key) const
{
    const auto &w = words(key);
    if (w.size() % 2 != 0)
        badShape(key, formatString("holds %zu words, not [key, value] "
                                   "pairs", w.size()));
    return w;
}

void
Io::badShape(const std::string &key, const std::string &problem) const
{
    fatal("checkpoint section '%s': key '%s' %s",
          in_->cur_->name.c_str(), key.c_str(), problem.c_str());
}

//
// Whole-simulator snapshot
//

namespace {

void
checkpointStats(Io &io, stats::Group &g, const std::string &prefix)
{
    for (stats::Stat *s : g.statList())
        s->checkpoint(io, prefix + s->name());
    for (stats::Group *c : g.children())
        checkpointStats(io, *c, prefix + c->name() + ".");
}

/**
 * The engine's own state: time, service counts and the packet-id
 * counter. Saves only happen with the engine quiesced at a barrier, so
 * every shard sits at a common tick; the service counts still differ
 * per shard.
 */
void
checkpointEngine(Io &io, Simulator &sim)
{
    const unsigned shards = sim.numShards();
    std::vector<std::uint64_t> ticks, serviced;
    for (unsigned s = 0; s < shards; ++s) {
        ticks.push_back(sim.shardQueue(s).curTick());
        serviced.push_back(sim.shardQueue(s).numEventsServiced());
    }
    std::uint64_t next_id = Packet::nextId();
    io.tick("curTick", ticks[0]);
    io.u64("numServiced", serviced[0]);
    io.u64("nextPacketId", next_id);
    io.check("objectCount", sim.objects().size(), "simulated object count");
    if (shards > 1) {
        io.lanes("shardTicks", ticks);
        io.lanes("shardServiced", serviced);
    }
    if (io.restoring()) {
        // Time first: deferred events re-schedule against the restored
        // tick, and components may sanity-check against curTick().
        for (unsigned s = 0; s < shards; ++s)
            sim.shardQueue(s).restoreState(ticks[s], serviced[s]);
        Packet::setNextId(next_id);
    }
}

/** Every section of @p sim, in the stream's order. */
void
checkpointAll(Io &io, Simulator &sim)
{
    io.section("sim", [&] { checkpointEngine(io, sim); });
    io.section("stats", [&] { checkpointStats(io, sim.rootStats(), ""); });
    for (SimObject *obj : sim.objects())
        io.section(obj->name(), [&] { obj->checkpoint(io); });
}

} // namespace

void
save(Simulator &sim, std::ostream &os)
{
    CkptOut out(os);
    Io io(out);
    checkpointAll(io, sim);
}

void
restore(Simulator &sim, std::istream &is)
{
    for (unsigned s = 0; s < sim.numShards(); ++s)
        if (!sim.shardQueue(s).empty() ||
            sim.shardQueue(s).curTick() != 0)
            fatal("checkpoint restore requires a freshly constructed "
                  "simulator (nothing run, nothing scheduled)");
    if (sim.startupDone())
        fatal("checkpoint restore requires a freshly constructed "
              "simulator (nothing run, nothing scheduled)");

    CkptIn in(is);
    Io io(in);
    checkpointAll(io, sim);
    in.finalizeEvents();
    sim.markStartupDone();
}

void
saveFile(Simulator &sim, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    if (!os)
        fatal("cannot write checkpoint '%s'", path.c_str());
    save(sim, os);
    os.flush();
    if (!os)
        fatal("error writing checkpoint '%s'", path.c_str());
}

void
restoreFile(Simulator &sim, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot read checkpoint '%s'", path.c_str());
    restore(sim, is);
}

std::string
saveToString(Simulator &sim)
{
    std::ostringstream os(std::ios::binary);
    save(sim, os);
    return os.str();
}

void
restoreFromString(Simulator &sim, const std::string &buf)
{
    std::istringstream is(buf, std::ios::binary);
    restore(sim, is);
}

//
// JSON debug dump
//

void
dumpJson(std::istream &is, std::ostream &os)
{
    CkptIn in(is);

    os << "{\"format_version\": " << kFormatVersion
       << ", \"sections\": [\n";
    for (std::size_t si = 0; si < in.sections_.size(); ++si) {
        const auto &sec = in.sections_[si];
        os << " {\"name\": ";
        writeJsonEscaped(os, sec.name);
        os << ", \"version\": " << sec.version << ", \"records\": {";
        bool first = true;
        for (const auto &[key, val] : sec.records) {
            if (!first)
                os << ",";
            first = false;
            os << "\n   ";
            writeJsonEscaped(os, key);
            os << ": ";
            switch (val.type) {
              case RecordType::U64:
                os << val.u64;
                break;
              case RecordType::F64:
                os << formatString("%.17g", val.f64);
                break;
              case RecordType::Bool:
                os << (val.b ? "true" : "false");
                break;
              case RecordType::U64Vec: {
                os << '[';
                for (std::size_t i = 0; i < val.u64vec.size(); ++i)
                    os << (i ? "," : "") << val.u64vec[i];
                os << ']';
                break;
              }
              case RecordType::F64Vec: {
                os << '[';
                for (std::size_t i = 0; i < val.f64vec.size(); ++i)
                    os << (i ? "," : "")
                       << formatString("%.17g", val.f64vec[i]);
                os << ']';
                break;
              }
            }
        }
        os << "\n }}" << (si + 1 < in.sections_.size() ? "," : "")
           << "\n";
    }
    os << "]}\n";
}

void
dumpJsonFile(const std::string &path, std::ostream &os)
{
    std::ifstream is(path, std::ios::binary);
    if (!is)
        fatal("cannot read checkpoint '%s'", path.c_str());
    dumpJson(is, os);
}

} // namespace ckpt
} // namespace dramctrl
