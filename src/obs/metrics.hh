/**
 * @file
 * Hierarchical metrics registry.
 *
 * A MetricsRegistry is the introspection façade over everything the
 * simulator can report mid-run: free-standing counters and gauges that
 * tools register under dotted paths ("batch.jobs_completed"), plus any
 * number of attached stats::Group trees, which are flattened into the
 * same dotted namespace at snapshot time ("ctrl0.lat.queueing.p99").
 * Snapshots can be rendered as JSON or as Prometheus text exposition,
 * which is what the live endpoint (see metrics_server.hh) serves.
 *
 * Counters and gauges are atomics, so worker threads (BatchRunner
 * jobs, the fuzzer) may bump them without holding any lock; the
 * registration maps themselves are mutex-guarded. Attached stats trees
 * are NOT thread-safe — they are read at snapshot time, so snapshots
 * must be taken from the thread that owns the tree (the simulation
 * thread), which then hands the rendered text to the server.
 */

#ifndef DRAMCTRL_OBS_METRICS_H
#define DRAMCTRL_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace dramctrl {

namespace stats {
class Group;
class Stat;
} // namespace stats

namespace obs {

/** Monotonically increasing integer metric. */
class Counter
{
  public:
    void inc(std::uint64_t n = 1)
    {
        value_.fetch_add(n, std::memory_order_relaxed);
    }
    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Instantaneous floating-point metric. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<double> value_{0.0};
};

/** One flattened time-point value in a snapshot. */
struct MetricSample
{
    std::string path; ///< dotted path, e.g. "ctrl0.lat.queueing.p99"
    std::string help; ///< one-line description (may be empty)
    double value = 0;
    bool isCounter = false;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /**
     * The counter/gauge registered under @p path, created on first
     * use. Repeated calls with the same path return the same object;
     * registering a path as both a counter and a gauge is fatal().
     * The returned reference stays valid for the registry's lifetime.
     */
    Counter &counter(const std::string &path,
                     const std::string &help = "");
    Gauge &gauge(const std::string &path, const std::string &help = "");

    /**
     * Attach a statistics tree. Every stat below @p root appears in
     * snapshots under @p prefix plus its dotted group path (the root
     * group's own name is omitted, matching stats::Group::resolve()).
     * @p root must outlive the registry or be detached first.
     */
    void attachStats(const stats::Group *root,
                     const std::string &prefix = "");
    void detachStats(const stats::Group *root);

    /**
     * Locate a statistic by dotted path across all attached trees
     * (prefixes considered). @return nullptr when absent.
     */
    const stats::Stat *resolveStat(const std::string &path) const;

    /**
     * Flatten everything into one sample vector: registered counters
     * and gauges, then attached stats trees (scalars by value,
     * vectors as path.N, histograms as path.count/mean/p50/p95/p99),
     * read after the trees' dump callbacks ran, as in a stats dump.
     * Ordering is deterministic: registration order is irrelevant,
     * samples are sorted by path.
     */
    std::vector<MetricSample> snapshot() const;

    /** Render a snapshot as one JSON object keyed by dotted path. */
    void writeJson(std::ostream &os) const;

    /**
     * Render a snapshot in Prometheus text exposition format. Paths
     * are sanitised ([^a-zA-Z0-9_] becomes '_') and prefixed with
     * "dramctrl_"; counters get a "_total" suffix per convention.
     */
    void writeProm(std::ostream &os) const;

  private:
    struct AttachedTree
    {
        const stats::Group *root;
        std::string prefix;
    };

    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::string> help_;
    std::vector<AttachedTree> trees_;
};

} // namespace obs
} // namespace dramctrl

#endif // DRAMCTRL_OBS_METRICS_H
