/**
 * @file
 * Trace points: cheap, per-component, runtime-toggleable debug
 * channels, the counterpart of gem5's DPRINTF infrastructure the
 * paper's model relies on for debugging.
 *
 * A trace point is written as
 *
 *     TRACE(DRAMCtrl, "servicing burst rank %u bank %u", r, b);
 *
 * and compiles to a single load-and-branch on a global flag word when
 * the channel is disabled — cheap enough to leave in the hottest
 * paths of both controller models. Enabled channels format the
 * message and hand it, tick-stamped, to every registered sink.
 *
 * Sinks are pluggable: tick-stamped text (stderr or file) and JSONL
 * ship here; tests inject their own to assert routing.
 */

#ifndef DRAMCTRL_OBS_TRACE_H
#define DRAMCTRL_OBS_TRACE_H

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>

#include "sim/types.hh"

namespace dramctrl {
namespace obs {

/**
 * One channel per instrumented component class. Channels are bits in
 * a flag word, so "is this channel on" is one AND.
 */
enum class TraceChannel : unsigned {
    DRAMCtrl,    ///< event-based controller decisions
    CycleCtrl,   ///< cycle-based comparator decisions
    XBar,        ///< crossbar routing and credit back pressure
    Port,        ///< port-level refused sends and retries
    PacketQueue, ///< response-queue delivery and stalls
    EventQ,      ///< every serviced kernel event (very verbose)
    Refresh,     ///< refresh scheduling in either model
    Power,       ///< power-down / self-refresh episodes
    Sampler,     ///< periodic stats sampler activity
    NumChannels,
};

/** Printable name of @p ch. */
const char *toString(TraceChannel ch);

/** Parse a single channel name; false if unknown. */
bool channelFromString(const std::string &name, TraceChannel &out);

using ChannelMask = std::uint64_t;

constexpr ChannelMask
maskOf(TraceChannel ch)
{
    return ChannelMask(1) << static_cast<unsigned>(ch);
}

/** Mask with every channel enabled. */
constexpr ChannelMask
allChannels()
{
    return (ChannelMask(1)
            << static_cast<unsigned>(TraceChannel::NumChannels)) -
           1;
}

namespace detail {
/**
 * The flag word the TRACE macro tests. Thread-local, like the sink
 * registry: each thread of the batch engine owns an independent trace
 * configuration, so a worker capturing a failure trace (or the main
 * thread shrinking one) never interleaves with — or races against —
 * simulations running on other threads. Worker threads start with
 * every channel off.
 */
extern thread_local ChannelMask traceMask;
} // namespace detail

/** True when @p ch is enabled (the TRACE macro's guard). */
inline bool
traceEnabled(TraceChannel ch)
{
    return (detail::traceMask & maskOf(ch)) != 0;
}

void enableChannel(TraceChannel ch);
void disableChannel(TraceChannel ch);
void setChannelMask(ChannelMask mask);
ChannelMask channelMask();

/**
 * Enable channels from a comma-separated list of names ("all" enables
 * everything). @return false (leaving the mask untouched) if any name
 * is unknown.
 */
bool enableChannelsByName(const std::string &csv);

/** Receives every message emitted on an enabled channel. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /**
     * @param tick simulated time of the message, or kMaxTick when no
     *             simulator is active (e.g. construction-time traces)
     */
    virtual void write(Tick tick, TraceChannel ch,
                       const std::string &msg) = 0;

    virtual void flush() {}
};

/** Tick-stamped "tick: channel: message" lines on a std::ostream. */
class TextSink : public TraceSink
{
  public:
    explicit TextSink(std::ostream &os) : os_(os) {}

    void write(Tick tick, TraceChannel ch,
               const std::string &msg) override;
    void flush() override;

  private:
    std::ostream &os_;
};

/** TextSink that owns the file it writes to. */
class FileTextSink : public TextSink
{
  public:
    explicit FileTextSink(const std::string &path);

    bool ok() const { return file_.is_open(); }

  private:
    std::ofstream file_;
};

/** One JSON object per line: {"tick":..,"channel":"..","msg":".."}. */
class JsonlSink : public TraceSink
{
  public:
    explicit JsonlSink(std::ostream &os) : os_(os) {}

    void write(Tick tick, TraceChannel ch,
               const std::string &msg) override;
    void flush() override;

  private:
    std::ostream &os_;
};

/** JsonlSink that owns the file it writes to. */
class FileJsonlSink : public JsonlSink
{
  public:
    explicit FileJsonlSink(const std::string &path);

    bool ok() const { return file_.is_open(); }

  private:
    std::ofstream file_;
};

/**
 * Register @p sink (not owned) to receive enabled-channel messages.
 * With no sink registered, messages fall back to stderr so enabling a
 * channel always produces output. The registry is per thread (see
 * detail::traceMask): a sink only sees messages emitted by the thread
 * that registered it.
 */
void addSink(TraceSink *sink);
void removeSink(TraceSink *sink);
void clearSinks();
std::size_t numSinks();

/**
 * Format and dispatch one message. Called by the TRACE macro after
 * the enabled check; models do not call this directly.
 */
void emit(TraceChannel ch, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace obs
} // namespace dramctrl

/**
 * The trace point. The first argument is a bare TraceChannel
 * enumerator (TRACE(DRAMCtrl, ...)); the rest is a printf format.
 * Compiles to one branch when the channel is off.
 */
#define TRACE(channel, ...)                                               \
    do {                                                                  \
        if (::dramctrl::obs::traceEnabled(                                \
                ::dramctrl::obs::TraceChannel::channel))                  \
            ::dramctrl::obs::emit(                                        \
                ::dramctrl::obs::TraceChannel::channel, __VA_ARGS__);     \
    } while (0)

#endif // DRAMCTRL_OBS_TRACE_H
