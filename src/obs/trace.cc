#include "obs/trace.hh"

#include <cstdarg>
#include <vector>

#include "sim/logging.hh"

namespace dramctrl {
namespace obs {

namespace detail {
thread_local ChannelMask traceMask = 0;
} // namespace detail

namespace {

std::vector<TraceSink *> &
sinks()
{
    static thread_local std::vector<TraceSink *> s;
    return s;
}

const char *const kChannelNames[] = {
    "DRAMCtrl", "CycleCtrl", "XBar",  "Port",    "PacketQueue",
    "EventQ",   "Refresh",   "Power", "Sampler",
};

static_assert(sizeof(kChannelNames) / sizeof(kChannelNames[0]) ==
                  static_cast<unsigned>(TraceChannel::NumChannels),
              "channel name table out of sync");

/** Append "tick: " or "-: " (no active simulator) to @p out. */
void
appendTickStamp(std::string &out, Tick tick)
{
    if (tick == kMaxTick)
        out += "-: ";
    else
        out += std::to_string(tick) + ": ";
}

} // namespace

const char *
toString(TraceChannel ch)
{
    auto idx = static_cast<unsigned>(ch);
    if (idx >= static_cast<unsigned>(TraceChannel::NumChannels))
        return "invalid";
    return kChannelNames[idx];
}

bool
channelFromString(const std::string &name, TraceChannel &out)
{
    for (unsigned i = 0;
         i < static_cast<unsigned>(TraceChannel::NumChannels); ++i) {
        if (name == kChannelNames[i]) {
            out = static_cast<TraceChannel>(i);
            return true;
        }
    }
    return false;
}

void
enableChannel(TraceChannel ch)
{
    detail::traceMask |= maskOf(ch);
}

void
disableChannel(TraceChannel ch)
{
    detail::traceMask &= ~maskOf(ch);
}

void
setChannelMask(ChannelMask mask)
{
    detail::traceMask = mask;
}

ChannelMask
channelMask()
{
    return detail::traceMask;
}

bool
enableChannelsByName(const std::string &csv)
{
    if (csv == "all") {
        detail::traceMask |= allChannels();
        return true;
    }
    ChannelMask add = 0;
    for (const std::string &name : splitCsv(csv)) {
        TraceChannel ch;
        if (!channelFromString(name, ch))
            return false;
        add |= maskOf(ch);
    }
    detail::traceMask |= add;
    return true;
}

void
TextSink::write(Tick tick, TraceChannel ch, const std::string &msg)
{
    std::string line;
    line.reserve(msg.size() + 32);
    appendTickStamp(line, tick);
    line += toString(ch);
    line += ": ";
    line += msg;
    line += '\n';
    os_ << line;
}

void
TextSink::flush()
{
    os_.flush();
}

FileTextSink::FileTextSink(const std::string &path)
    : TextSink(file_), file_(path)
{
}

void
JsonlSink::write(Tick tick, TraceChannel ch, const std::string &msg)
{
    os_ << "{\"tick\": ";
    if (tick == kMaxTick)
        os_ << "null";
    else
        os_ << tick;
    os_ << ", \"channel\": \"" << toString(ch) << "\", \"msg\": ";
    writeJsonEscaped(os_, msg);
    os_ << "}\n";
}

void
JsonlSink::flush()
{
    os_.flush();
}

FileJsonlSink::FileJsonlSink(const std::string &path)
    : JsonlSink(file_), file_(path)
{
}

void
addSink(TraceSink *sink)
{
    sinks().push_back(sink);
}

void
removeSink(TraceSink *sink)
{
    auto &s = sinks();
    for (auto it = s.begin(); it != s.end(); ++it) {
        if (*it == sink) {
            s.erase(it);
            return;
        }
    }
}

void
clearSinks()
{
    sinks().clear();
}

std::size_t
numSinks()
{
    return sinks().size();
}

void
emit(TraceChannel ch, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformatString(fmt, args);
    va_end(args);

    Tick tick = kMaxTick;
    activeSimTick(tick);

    if (sinks().empty()) {
        // Fallback so an enabled channel is never silently mute.
        std::string line;
        appendTickStamp(line, tick);
        std::fprintf(stderr, "%s%s: %s\n", line.c_str(), toString(ch),
                     msg.c_str());
        return;
    }
    for (TraceSink *sink : sinks())
        sink->write(tick, ch, msg);
}

} // namespace obs
} // namespace dramctrl
