/**
 * @file
 * Chrome trace-event (Perfetto-compatible) exporter.
 *
 * Records packet lifecycle spans (controller accept -> response send,
 * with crossbar and port hops as instants), DRAM command instants
 * reconstructed from a CmdLogger, and queue-depth counter series, and
 * writes them in the Chrome trace-event JSON object format — load the
 * file in chrome://tracing or https://ui.perfetto.dev.
 *
 * Spans use nestable async events ("ph":"b"/"e") keyed by packet id,
 * so overlapping in-flight packets render as parallel slices.
 * Timestamps are microseconds (the format's unit); one tick is one
 * picosecond, so sub-nanosecond precision survives the conversion.
 *
 * Components reach the exporter through the process-global pointer
 * (setChromeTracer/chromeTracer), mirroring how the trace-point flag
 * word works: a disabled exporter costs one null check.
 */

#ifndef DRAMCTRL_OBS_CHROME_TRACE_H
#define DRAMCTRL_OBS_CHROME_TRACE_H

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "dram/cmd_log.hh"
#include "sim/types.hh"

namespace dramctrl {
namespace obs {

class ChromeTraceWriter
{
  public:
    ChromeTraceWriter() = default;

    ChromeTraceWriter(const ChromeTraceWriter &) = delete;
    ChromeTraceWriter &operator=(const ChromeTraceWriter &) = delete;

    /**
     * Cap the number of recorded events; once reached further events
     * are dropped (and counted), bounding memory on long runs. 0
     * means unlimited.
     */
    void setMaxEvents(std::size_t max) { maxEvents_ = max; }
    std::uint64_t droppedEvents() const { return dropped_; }

    /**
     * Open an async span on @p track (one named Perfetto track per
     * component), keyed by @p id. Nested/overlapping spans with
     * distinct ids are fine.
     */
    void beginSpan(const std::string &track, std::uint64_t id,
                   const std::string &name, Tick tick);

    /**
     * Close the span @p id opened on any track. A close without a
     * matching open is ignored (a response passing a component that
     * never opened a span for it).
     */
    void endSpan(std::uint64_t id, Tick tick);

    /** A zero-duration marker on @p track. */
    void instant(const std::string &track, const std::string &name,
                 Tick tick);

    /** One sample of the counter series @p series on track @p track. */
    void counter(const std::string &track, const std::string &series,
                 Tick tick, double value);

    /**
     * Convert a DRAM command log into instant events, one track per
     * rank under @p track_prefix (e.g. "mem_ctrl.rank0"). Records may
     * be out of tick order; they are emitted as-is (the JSON format
     * does not require ordering).
     */
    void importCmdLog(const std::vector<CmdRecord> &log,
                      const std::string &track_prefix);

    /** True while a span with @p id is open. */
    bool spanOpen(std::uint64_t id) const
    {
        return openSpans_.count(id) != 0;
    }

    std::size_t numEvents() const { return events_.size(); }

    /** Serialise everything as one JSON object. */
    void write(std::ostream &os) const;

    /** Convenience: write to @p path. @return false on I/O failure. */
    bool writeFile(const std::string &path) const;

  private:
    struct TraceEvent
    {
        char ph;          ///< b, e, i, C
        unsigned tid;     ///< track
        Tick ts;
        std::uint64_t id; ///< async span id (b/e only)
        std::string name;
        std::string argKey;   ///< counter series / instant detail key
        double argValue = 0;  ///< counter value
        bool hasArg = false;
    };

    unsigned trackId(const std::string &track);
    bool admit();

    std::vector<TraceEvent> events_;
    /** Track name -> tid, in registration order. */
    std::vector<std::string> trackNames_;
    std::map<std::string, unsigned> trackIds_;
    /** Open async spans: id -> tid the span began on. */
    std::map<std::uint64_t, unsigned> openSpans_;
    std::size_t maxEvents_ = 0;
    std::uint64_t dropped_ = 0;
};

namespace detail {
/**
 * The calling thread's recorder, read inline by chromeTracer(): with
 * tracing off, a call site costs one load and one branch. Per thread,
 * like detail::traceMask: a batch worker's packets never feed an
 * exporter installed by another thread.
 */
extern thread_local ChromeTraceWriter *chromeTracer;
} // namespace detail

/**
 * Install @p writer (not owned; nullptr detaches) as the calling
 * thread's packet-lifecycle recorder that instrumented components
 * feed. The pointer is thread-local, so batch workers never write
 * into an exporter installed by the main thread.
 */
void setChromeTracer(ChromeTraceWriter *writer);

/** The installed recorder, or nullptr when tracing is off. */
inline ChromeTraceWriter *
chromeTracer()
{
    return detail::chromeTracer;
}

} // namespace obs
} // namespace dramctrl

#endif // DRAMCTRL_OBS_CHROME_TRACE_H
