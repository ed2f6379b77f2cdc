#include "sim/logging.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sim/eventq.hh"

namespace dramctrl {

namespace {

std::atomic<bool> quietFlag{false};
std::atomic<bool> throwFlag{false};

/**
 * Tick-source registry: per-thread stacks of live event queues,
 * keyed by thread id and guarded by one mutex. Keeping the stacks
 * per thread matters for the batch engine twice over: a warn() on a
 * worker thread is stamped with *its own* simulation's tick, never a
 * concurrently advancing one, and reading another thread's
 * (non-atomic) curTick would itself be a data race. The mutex makes
 * registration, unregistration and lookup safe against concurrent
 * simulator construction/destruction on other threads.
 *
 * Queues register in their constructor and unregister in their
 * destructor (see EventQueue), so a destroyed queue can never be left
 * dangling in the registry for the next warn() to dereference.
 */
std::mutex &
registryMutex()
{
    static std::mutex m;
    return m;
}

std::unordered_map<std::thread::id, std::vector<const EventQueue *>> &
tickSources()
{
    static std::unordered_map<std::thread::id,
                              std::vector<const EventQueue *>>
        sources;
    return sources;
}

/** "1234567: " when a simulator is active, "" otherwise. */
std::string
tickPrefix()
{
    Tick tick = 0;
    if (!activeSimTick(tick))
        return "";
    return std::to_string(tick) + ": ";
}

} // namespace

void
registerTickSource(const EventQueue *eq)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    tickSources()[std::this_thread::get_id()].push_back(eq);
}

void
unregisterTickSource(const EventQueue *eq)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    auto &map = tickSources();
    auto removeFrom = [eq](std::vector<const EventQueue *> &sources) {
        for (auto it = sources.rbegin(); it != sources.rend(); ++it) {
            if (*it == eq) {
                sources.erase(std::next(it).base());
                return true;
            }
        }
        return false;
    };
    // The common case: the queue dies on the thread it lived on.
    auto own = map.find(std::this_thread::get_id());
    if (own != map.end() && removeFrom(own->second))
        return;
    // Pathological hand-off between threads: still never dangle.
    for (auto &entry : map) {
        if (removeFrom(entry.second))
            return;
    }
}

bool
activeSimTick(Tick &tick)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    auto &map = tickSources();
    auto it = map.find(std::this_thread::get_id());
    if (it == map.end() || it->second.empty())
        return false;
    tick = it->second.back()->curTick();
    return true;
}

std::string
vformatString(const char *fmt, std::va_list args)
{
    std::va_list args_copy;
    va_copy(args_copy, args);
    int needed = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (needed < 0)
        return std::string(fmt);
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, args);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

void
writeJsonEscaped(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"': os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\r': os << "\\r"; break;
          case '\t': os << "\\t"; break;
          case '\b': os << "\\b"; break;
          case '\f': os << "\\f"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

std::string
jsonEscaped(const std::string &s)
{
    std::ostringstream os;
    writeJsonEscaped(os, s);
    return os.str();
}

std::string
formatString(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string s = vformatString(fmt, args);
    va_end(args);
    return s;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= csv.size()) {
        std::size_t comma = std::min(csv.find(',', pos), csv.size());
        if (comma > pos)
            out.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

void
panic(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformatString(fmt, args);
    va_end(args);
    if (throwFlag.load(std::memory_order_relaxed))
        throw std::runtime_error("panic: " + msg);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformatString(fmt, args);
    va_end(args);
    if (throwFlag.load(std::memory_order_relaxed))
        throw std::runtime_error("fatal: " + msg);
    std::fprintf(stderr, "fatal: %s\n", msg.c_str());
    std::exit(1);
}

void
warn(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformatString(fmt, args);
    va_end(args);
    std::fprintf(stderr, "%swarn: %s\n", tickPrefix().c_str(),
                 msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quietFlag.load(std::memory_order_relaxed))
        return;
    std::va_list args;
    va_start(args, fmt);
    std::string msg = vformatString(fmt, args);
    va_end(args);
    std::fprintf(stdout, "%sinfo: %s\n", tickPrefix().c_str(),
                 msg.c_str());
}

void
setQuiet(bool quiet)
{
    quietFlag.store(quiet, std::memory_order_relaxed);
}

bool
isQuiet()
{
    return quietFlag.load(std::memory_order_relaxed);
}

void
setThrowOnError(bool throw_on_error)
{
    throwFlag.store(throw_on_error, std::memory_order_relaxed);
}

} // namespace dramctrl
