#include "obs/chrome_trace.hh"

#include <cstdio>
#include <fstream>

#include "sim/logging.hh"

namespace dramctrl {
namespace obs {

namespace detail {
thread_local ChromeTraceWriter *chromeTracer = nullptr;
} // namespace detail

namespace {

/** Ticks (ps) to trace-format microseconds, exact to 1e-6 us. */
void
writeTs(std::ostream &os, Tick tick)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(tick / 1000000),
                  static_cast<unsigned long long>(tick % 1000000));
    os << buf;
}

// Track and event names are config-derived (preset names, object
// names) and may contain anything; the shared escaper also covers
// control characters, which the old local version did not.
void
writeJsonString(std::ostream &os, const std::string &s)
{
    writeJsonEscaped(os, s);
}

} // namespace

void
setChromeTracer(ChromeTraceWriter *writer)
{
    detail::chromeTracer = writer;
}

unsigned
ChromeTraceWriter::trackId(const std::string &track)
{
    auto it = trackIds_.find(track);
    if (it != trackIds_.end())
        return it->second;
    auto tid = static_cast<unsigned>(trackNames_.size());
    trackNames_.push_back(track);
    trackIds_.emplace(track, tid);
    return tid;
}

bool
ChromeTraceWriter::admit()
{
    if (maxEvents_ != 0 && events_.size() >= maxEvents_) {
        ++dropped_;
        return false;
    }
    return true;
}

void
ChromeTraceWriter::beginSpan(const std::string &track, std::uint64_t id,
                             const std::string &name, Tick tick)
{
    if (!admit())
        return;
    unsigned tid = trackId(track);
    // A duplicate begin for a live id would leave an unbalanced pair;
    // keep the first.
    if (!openSpans_.emplace(id, tid).second)
        return;
    events_.push_back(TraceEvent{'b', tid, tick, id, name, "", 0,
                                 false});
}

void
ChromeTraceWriter::endSpan(std::uint64_t id, Tick tick)
{
    auto it = openSpans_.find(id);
    if (it == openSpans_.end())
        return;
    unsigned tid = it->second;
    openSpans_.erase(it);
    // The end must be recorded even at the cap, or the span never
    // closes; ends are not dropped.
    events_.push_back(TraceEvent{'e', tid, tick, id, "", "", 0, false});
}

void
ChromeTraceWriter::instant(const std::string &track,
                           const std::string &name, Tick tick)
{
    if (!admit())
        return;
    events_.push_back(TraceEvent{'i', trackId(track), tick, 0, name,
                                 "", 0, false});
}

void
ChromeTraceWriter::counter(const std::string &track,
                           const std::string &series, Tick tick,
                           double value)
{
    if (!admit())
        return;
    events_.push_back(TraceEvent{'C', trackId(track), tick, 0, track,
                                 series, value, true});
}

void
ChromeTraceWriter::importCmdLog(const std::vector<CmdRecord> &log,
                                const std::string &track_prefix)
{
    for (const CmdRecord &rec : log) {
        if (!admit())
            return;
        std::string track =
            track_prefix + ".rank" + std::to_string(rec.rank);
        std::string name = dramctrl::toString(rec.cmd);
        if (rec.cmd != DRAMCmd::Ref)
            name += " b" + std::to_string(rec.bank);
        if (rec.cmd == DRAMCmd::Act)
            name += " r" + std::to_string(rec.row);
        events_.push_back(TraceEvent{'i', trackId(track), rec.tick, 0,
                                     name, "", 0, false});
    }
}

void
ChromeTraceWriter::write(std::ostream &os) const
{
    os << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
    os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
          "\"args\": {\"name\": \"dramctrl\"}}";

    for (std::size_t tid = 0; tid < trackNames_.size(); ++tid) {
        os << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", "
              "\"pid\": 1, \"tid\": "
           << tid << ", \"args\": {\"name\": ";
        writeJsonString(os, trackNames_[tid]);
        os << "}}";
    }

    for (const TraceEvent &ev : events_) {
        os << ",\n{\"ph\": \"" << ev.ph << "\", \"pid\": 1, \"tid\": "
           << ev.tid << ", \"ts\": ";
        writeTs(os, ev.ts);
        switch (ev.ph) {
          case 'b':
            os << ", \"cat\": \"pkt\", \"id\": " << ev.id
               << ", \"name\": ";
            writeJsonString(os, ev.name);
            break;
          case 'e':
            os << ", \"cat\": \"pkt\", \"id\": " << ev.id
               << ", \"name\": \"\"";
            break;
          case 'i':
            os << ", \"s\": \"t\", \"name\": ";
            writeJsonString(os, ev.name);
            break;
          case 'C':
            os << ", \"name\": ";
            writeJsonString(os, ev.name);
            os << ", \"args\": {";
            writeJsonString(os, ev.argKey);
            os << ": " << ev.argValue << "}";
            break;
          default:
            break;
        }
        os << "}";
    }
    os << "\n]}\n";
}

bool
ChromeTraceWriter::writeFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os.is_open())
        return false;
    write(os);
    return os.good();
}

} // namespace obs
} // namespace dramctrl
