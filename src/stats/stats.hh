/**
 * @file
 * Statistics framework.
 *
 * Mirrors the role gem5's statistics package plays for the paper's model
 * (Section II-E): every model object owns a stats::Group; statistics
 * register themselves with the group at construction; the whole tree can
 * be dumped or reset at arbitrary points in simulated time. The power
 * model (Section II-G) is computed offline from these statistics.
 */

#ifndef DRAMCTRL_STATS_STATS_H
#define DRAMCTRL_STATS_STATS_H

#include <cstdint>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

namespace dramctrl {

namespace ckpt {
class CkptOut;
class CkptIn;
} // namespace ckpt

namespace stats {

class Group;

/**
 * Base class for all statistics: a named, documented value (or set of
 * values) that can be printed and reset.
 */
class Stat
{
  public:
    Stat(Group *parent, std::string name, std::string desc);
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Print "fullpath value # desc" lines, gem5 stats.txt style. */
    virtual void dump(std::ostream &os,
                      const std::string &prefix) const = 0;

    /** Emit this statistic's value as a JSON fragment. */
    virtual void dumpJson(std::ostream &os) const = 0;

    /**
     * A single number summarising the statistic right now (the
     * scalar's value, the vector's total, the histogram's mean, ...),
     * for time-series sampling. NaN when no summary makes sense.
     */
    virtual double sampleValue() const;

    /** Return the statistic to its just-constructed state. */
    virtual void reset() = 0;

    /**
     * Write this statistic's accumulated state under @p key into the
     * checkpoint section currently open on @p out. Derived values
     * (Formula) have no state and use the no-op default.
     */
    virtual void ckptSave(ckpt::CkptOut &out,
                          const std::string &key) const;

    /**
     * Overwrite this statistic with the state ckptSave() recorded.
     * Restore always assigns — never accumulates — so restoring after
     * a warmup phase cannot double-count samples.
     */
    virtual void ckptRestore(ckpt::CkptIn &in, const std::string &key);

  private:
    std::string name_;
    std::string desc_;
};

/** A single accumulating value (a counter or a gauge). */
class Scalar : public Stat
{
  public:
    Scalar(Group *parent, std::string name, std::string desc)
        : Stat(parent, std::move(name), std::move(desc))
    {}

    Scalar &operator+=(double v) { value_ += v; return *this; }
    Scalar &operator-=(double v) { value_ -= v; return *this; }
    Scalar &operator++() { value_ += 1; return *this; }
    Scalar &operator=(double v) { value_ = v; return *this; }

    double value() const { return value_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;
    double sampleValue() const override { return value_; }
    void reset() override { value_ = 0; }
    void ckptSave(ckpt::CkptOut &out,
                  const std::string &key) const override;
    void ckptRestore(ckpt::CkptIn &in, const std::string &key) override;

  private:
    double value_ = 0;
};

/** Arithmetic mean over explicitly recorded samples. */
class Average : public Stat
{
  public:
    Average(Group *parent, std::string name, std::string desc)
        : Stat(parent, std::move(name), std::move(desc))
    {}

    void sample(double v) { sum_ += v; ++count_; }

    double value() const { return count_ ? sum_ / count_ : 0.0; }
    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;
    double sampleValue() const override { return value(); }
    void reset() override { sum_ = 0; count_ = 0; }
    void ckptSave(ckpt::CkptOut &out,
                  const std::string &key) const override;
    void ckptRestore(ckpt::CkptIn &in, const std::string &key) override;

  private:
    double sum_ = 0;
    std::uint64_t count_ = 0;
};

/** A fixed-size vector of named scalar values (e.g. per-bank counters). */
class Vector : public Stat
{
  public:
    Vector(Group *parent, std::string name, std::string desc,
           std::size_t size)
        : Stat(parent, std::move(name), std::move(desc)),
          values_(size, 0.0)
    {}

    double &operator[](std::size_t i) { return values_.at(i); }
    double operator[](std::size_t i) const { return values_.at(i); }

    std::size_t size() const { return values_.size(); }
    double total() const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;
    double sampleValue() const override { return total(); }
    void reset() override;
    void ckptSave(ckpt::CkptOut &out,
                  const std::string &key) const override;
    void ckptRestore(ckpt::CkptIn &in, const std::string &key) override;

  private:
    std::vector<double> values_;
};

/**
 * A value computed on demand from other statistics, evaluated at dump
 * time (gem5 Formula).
 */
class Formula : public Stat
{
  public:
    Formula(Group *parent, std::string name, std::string desc,
            std::function<double()> fn)
        : Stat(parent, std::move(name), std::move(desc)),
          fn_(std::move(fn))
    {}

    double value() const { return fn_(); }

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;
    double sampleValue() const override { return fn_(); }
    void reset() override {}

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics and child groups; model objects own
 * one and statistics attach to it by passing it as their parent.
 */
class Group
{
  public:
    explicit Group(std::string name, Group *parent = nullptr);

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &name() const { return name_; }

    /** Slash-separated path from the root group. */
    std::string fullPath() const;

    void addStat(Stat *stat);
    void addChild(Group *child);

    /**
     * Register a callback run by resetAll(), letting owners reset
     * non-Stat bookkeeping (e.g. the start tick of a measurement
     * window) together with their statistics.
     */
    void onReset(std::function<void()> fn);

    /**
     * Register a callback run just before this group (or any ancestor)
     * dumps, letting owners fold lazily-maintained state into their
     * statistics — e.g. a controller plugin publishing the size of its
     * internal tracking tables.
     */
    void onDump(std::function<void()> fn);

    /** Dump this group's stats and all children, depth first. */
    void dump(std::ostream &os) const;

    /**
     * Dump the whole tree as a JSON object keyed by group and stat
     * names — the machine-readable twin of dump(), for plotting and
     * regression tooling.
     */
    void dumpJson(std::ostream &os) const;

    /**
     * Run the dump callbacks of this group and all children, depth
     * first, so lazily folded statistics are current. dump() and
     * dumpJson() do this themselves; anything else that reads stat
     * values directly (samplers, live metrics) calls it first.
     */
    void fireDumpCallbacks() const;

    /** Reset this group's stats and all children. */
    void resetAll();

    /** Locate a statistic by name in this group only. */
    const Stat *find(const std::string &name) const;

    /** Locate a direct child group by name. */
    const Group *findChild(const std::string &name) const;

    /**
     * Locate a statistic by dot-separated path below this group,
     * e.g. "mem_ctrl.bytesRead" from the root. @return nullptr when
     * any component is missing.
     */
    const Stat *resolve(const std::string &path) const;

    const std::vector<Stat *> &statList() const { return stats_; }
    const std::vector<Group *> &children() const { return children_; }

  private:
    std::string name_;
    Group *parent_;
    std::vector<Stat *> stats_;
    std::vector<Group *> children_;
    std::vector<std::function<void()>> resetCallbacks_;
    std::vector<std::function<void()>> dumpCallbacks_;

    /** dump() / dumpJson() bodies, minus the callback pass. */
    void dumpStats(std::ostream &os) const;
    void dumpJsonStats(std::ostream &os) const;
};

} // namespace stats
} // namespace dramctrl

#endif // DRAMCTRL_STATS_STATS_H
