/**
 * @file
 * Logging and error-reporting helpers.
 *
 * Follows the gem5 convention:
 *  - panic():  a condition that indicates a bug in the simulator itself.
 *              Aborts (so a debugger or core dump can pick it up).
 *  - fatal():  a condition caused by the user (bad configuration,
 *              inconsistent parameters). Exits with status 1.
 *  - warn():   something is probably modelled imprecisely but the
 *              simulation can continue.
 *  - inform(): purely informational status output.
 */

#ifndef DRAMCTRL_SIM_LOGGING_H
#define DRAMCTRL_SIM_LOGGING_H

#include <cstdarg>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace dramctrl {

class EventQueue;

/** Format a printf-style message into a std::string. */
std::string vformatString(const char *fmt, std::va_list args);

/**
 * Write @p s to @p os as a double-quoted JSON string, escaping
 * quotes, backslashes and all control characters. Every sink that
 * embeds a config-derived name (preset names, instance names, stat
 * paths) in JSON output must go through this — a hostile preset name
 * must never produce an unparsable trace.
 */
void writeJsonEscaped(std::ostream &os, const std::string &s);

/** writeJsonEscaped() into a returned string (including the quotes). */
std::string jsonEscaped(const std::string &s);

/** Format a printf-style message into a std::string. */
std::string formatString(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** The non-empty items of the comma-separated list @p csv, in order. */
std::vector<std::string> splitCsv(const std::string &csv);

/** Report a simulator bug and abort. */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2), noreturn));

/** Report a user error and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2), noreturn));

/**
 * Report a non-fatal modelling concern. When a simulator is active
 * (see registerTickSource) the message is prefixed with the current
 * simulated tick, so diagnostics correlate with simulated time.
 */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report informational status (tick-prefixed like warn()). */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/**
 * Register @p eq as the calling thread's simulated-time source for
 * tick-stamping warn()/inform() output and trace messages. Event
 * queues register themselves on construction and unregister on
 * destruction, so the registry never holds a dangling queue; with
 * several alive on one thread (nested testbenches), the most
 * recently registered one wins. The registry keeps one stack per
 * thread behind a mutex: concurrent batch workers each stamp with
 * their own simulation's tick.
 */
void registerTickSource(const EventQueue *eq);

/** Remove @p eq from its tick-source stack (any position). */
void unregisterTickSource(const EventQueue *eq);

/**
 * @return true and set @p tick to the calling thread's innermost
 *         active simulator's current tick; false when this thread
 *         has no simulator alive.
 */
bool activeSimTick(Tick &tick);

/** Suppress warn()/inform() output (used by tests and benchmarks). */
void setQuiet(bool quiet);

/** @return true if warn()/inform() output is suppressed. */
bool isQuiet();

/**
 * Test hook: when set, panic() and fatal() throw std::runtime_error
 * instead of terminating, so death paths can be unit tested.
 */
void setThrowOnError(bool throw_on_error);

} // namespace dramctrl

/** Assert-like helper for simulator invariants that names the condition. */
#define DC_ASSERT(cond, ...)                                              \
    do {                                                                  \
        if (!(cond))                                                      \
            ::dramctrl::panic("assertion '%s' failed: %s", #cond,         \
                              ::dramctrl::formatString(__VA_ARGS__)       \
                                  .c_str());                              \
    } while (0)

#endif // DRAMCTRL_SIM_LOGGING_H
