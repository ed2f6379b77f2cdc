/**
 * @file
 * Periodic statistics sampler: a repeating event that snapshots
 * selected stats::Group values every N ticks into a CSV or JSONL time
 * series.
 *
 * The end-of-run stats dump answers "what happened on average"; the
 * sampler answers "when" — bandwidth ramps, queue-depth oscillation
 * under the write-drain watermarks, the page-hit rate collapsing as a
 * working set outgrows the open rows. Rows are stamped with the
 * simulated tick and aligned to multiples of the sampling interval,
 * so series from different runs line up.
 *
 * Samples read each stat's sampleValue() (cumulative counters stay
 * cumulative; formulas evaluate at sample time) after running the
 * dump callbacks, so lazily folded stats (a sleeping core's cycles,
 * a plugin's table sizes) read as a dump would. A stats reset simply
 * shows up as the counters restarting — the sampler keeps its
 * schedule and its stat bindings across resets.
 */

#ifndef DRAMCTRL_OBS_STATS_SAMPLER_H
#define DRAMCTRL_OBS_STATS_SAMPLER_H

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "sim/event.hh"
#include "sim/sim_object.hh"
#include "stats/stats.hh"

namespace dramctrl {
namespace obs {

class StatsSampler : public SimObject
{
  public:
    enum class Format { Csv, Jsonl };

    /**
     * @param sim owning simulator (also the root of stat paths)
     * @param name instance name
     * @param interval ticks between samples (> 0)
     * @param os where rows go; must outlive the sampler
     * @param format Csv (header + rows) or Jsonl (object per sample)
     */
    StatsSampler(Simulator &sim, std::string name, Tick interval,
                 std::ostream &os, Format format = Format::Csv);

    ~StatsSampler() override;

    /**
     * Bind a statistic by dot-separated path below the simulator's
     * root stats group, e.g. "mem_ctrl.bytesRead". All stats must be
     * added before the first sample (the CSV header is emitted then).
     *
     * @return false when the path does not resolve.
     */
    bool addStat(const std::string &path);

    /** Bind every stat of the group at @p group_path. */
    bool addGroupStats(const std::string &group_path);

    Tick interval() const { return interval_; }
    std::uint64_t samplesTaken() const { return samplesTaken_; }
    std::size_t numStats() const { return stats_.size(); }

    /** Take one sample immediately (also what the event does). */
    void sampleNow();

    void startup() override;

    /**
     * Checkpoint the sampling timeline: the pending sample event, the
     * sample index and whether the header went out. A restored run
     * produces byte-identical rows from the resume point on; the
     * header is not re-emitted when the restored sink continues an
     * existing file.
     */
    void serialize(ckpt::CkptOut &out) const override;
    void unserialize(ckpt::CkptIn &in) override;

  private:
    void processSample();
    void writeHeader();

    /** Next interval multiple strictly after @p now. */
    Tick nextAligned(Tick now) const
    {
        return (now / interval_ + 1) * interval_;
    }

    Tick interval_;
    std::ostream &os_;
    Format format_;
    std::vector<std::string> paths_;
    std::vector<const stats::Stat *> stats_;
    bool headerWritten_ = false;
    std::uint64_t samplesTaken_ = 0;
    EventFunctionWrapper sampleEvent_;
};

} // namespace obs
} // namespace dramctrl

#endif // DRAMCTRL_OBS_STATS_SAMPLER_H
