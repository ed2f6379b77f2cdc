/**
 * @file
 * Integer log-linear histogram: the one histogram of the simulator.
 *
 * Every latency distribution (the controllers' per-stage attribution,
 * the generators' end-to-end and crossbar latencies, the paper's
 * Figures 6 and 7) is a TickHistogram. Its sample path is all-integer
 * because it fires seven times per serviced read (see
 * latency_attr.hh): values are bucketed log-linearly (every
 * power-of-two octave split into 16 linear sub-buckets, HDR-histogram
 * style), so recording a sample is a bit-scan, a shift, and three
 * adds — no divides, no doubles.
 *
 * Resolution: exact below 32 ticks, then a relative bucket width of
 * 1/16 (6.25%); percentiles interpolate linearly inside a bucket and
 * clamp to the observed min/max. Mode counting reads a coarser, fixed
 * grid of quarter octaves (numModes()), the same for every model.
 * Samples are raw ticks; all reporting accessors convert to
 * nanoseconds so dumps, the metrics registry and the sampler read in
 * the same unit as every other latency statistic.
 */

#ifndef DRAMCTRL_STATS_TICK_HISTOGRAM_H
#define DRAMCTRL_STATS_TICK_HISTOGRAM_H

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>

#include "sim/types.hh"
#include "stats/stats.hh"

namespace dramctrl {
namespace stats {

class TickHistogram : public Stat
{
  public:
    /** Sub-buckets per power-of-two octave (16 = 6.25% resolution). */
    static constexpr unsigned kSubBits = 4;
    static constexpr unsigned kSubCount = 1u << kSubBits;
    /** Highest index is reached at msb 63: ((63-4+1) << 4) | 15. */
    static constexpr unsigned kNumBuckets =
        (((64 - kSubBits) << kSubBits) | (kSubCount - 1)) + 1;

    TickHistogram(Group *parent, std::string name, std::string desc);

    /** Bucket index of @p t: exact below 2*kSubCount, log-linear above. */
    static constexpr unsigned
    indexOf(Tick t)
    {
        if (t < kSubCount)
            return static_cast<unsigned>(t);
        unsigned msb = 63u - static_cast<unsigned>(std::countl_zero(t));
        unsigned shift = msb - kSubBits;
        return ((shift + 1) << kSubBits) |
               static_cast<unsigned>((t >> shift) & (kSubCount - 1));
    }

    /** Inclusive lower tick bound of bucket @p idx. */
    static constexpr Tick
    bucketLow(unsigned idx)
    {
        if (idx < 2 * kSubCount)
            return idx;
        return static_cast<Tick>(kSubCount + (idx & (kSubCount - 1)))
               << ((idx >> kSubBits) - 1);
    }

    /** Width in ticks of bucket @p idx. */
    static constexpr Tick
    bucketWidth(unsigned idx)
    {
        return idx < 2 * kSubCount
                   ? 1
                   : Tick{1} << ((idx >> kSubBits) - 1);
    }

    /**
     * The grid numModes() reads and the latency figures print: native
     * buckets merged 4 to 1, so quarter q holds buckets 4q..4q+3 — a
     * quarter of an octave from 16 ticks up, 4 ticks wide below. A
     * fixed grid, so two distributions are compared on the same bins.
     */
    static constexpr unsigned kQuarterBits = 2;
    static constexpr unsigned kNumQuarters = kNumBuckets >> kQuarterBits;

    /** Inclusive lower tick bound of quarter @p q. */
    static constexpr Tick
    quarterLow(unsigned q)
    {
        return bucketLow(q << kQuarterBits);
    }

    /**
     * Record @p n samples of @p t ticks. All-integer, hot-path safe;
     * for the default n = 1 the multiply folds away.
     */
    void
    sample(Tick t, std::uint64_t n = 1)
    {
        if (count_ == 0) {
            minT_ = maxT_ = t;
        } else {
            minT_ = std::min(minT_, t);
            maxT_ = std::max(maxT_, t);
        }
        count_ += n;
        sumTicks_ += t * n;
        buckets_[indexOf(t)] += n;
    }

    std::uint64_t count() const { return count_; }
    Tick minTicks() const { return minT_; }
    Tick maxTicks() const { return maxT_; }
    std::uint64_t sumTicks() const { return sumTicks_; }

    /** Samples in native bucket @p idx. */
    std::uint64_t bucketCount(unsigned idx) const { return buckets_[idx]; }

    /** Samples in quarter @p q of the mode grid. */
    std::uint64_t quarterCount(unsigned q) const;

    /** Mean sample in nanoseconds. */
    double mean() const;

    /**
     * The value (ns) below which @p p percent of the samples fall,
     * linearly interpolated inside the containing bucket and clamped
     * to [minTicks, maxTicks].
     */
    double percentile(double p) const;

    /**
     * Count the distinct modes on the quarter-octave grid; the
     * event model's write-drain read latency (paper Fig. 7) reports 2.
     *
     * Local maxima holding at least 2% of the samples are candidate
     * modes; two candidates count as distinct only when the deepest
     * valley between them falls below half the smaller peak (a
     * prominence test, robust against broad noisy humps).
     */
    unsigned numModes() const;

    void dump(std::ostream &os, const std::string &prefix) const override;
    void dumpJson(std::ostream &os) const override;
    double sampleValue() const override { return mean(); }
    void reset() override;
    void checkpoint(ckpt::Io &io, const std::string &key) override;

  private:
    /** Percentile in ticks (interpolated, clamped). */
    double percentileTicks(double p) const;

    // Fixed array, not a vector: the sample path then needs no data-
    // pointer load, and StageLatencyStats can hold its histograms by
    // value so the per-request record() never chases a heap pointer.
    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sumTicks_ = 0;
    Tick minT_ = 0;
    Tick maxT_ = 0;
};

} // namespace stats
} // namespace dramctrl

#endif // DRAMCTRL_STATS_TICK_HISTOGRAM_H
