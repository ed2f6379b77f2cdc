#include "stats/tick_histogram.hh"

#include <iomanip>
#include <ostream>
#include <vector>

#include "ckpt/ckpt.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace stats {

TickHistogram::TickHistogram(Group *parent, std::string name,
                             std::string desc)
    : Stat(parent, std::move(name), std::move(desc))
{
}

double
TickHistogram::mean() const
{
    if (count_ == 0)
        return 0.0;
    return toNs(1) * static_cast<double>(sumTicks_) /
           static_cast<double>(count_);
}

std::uint64_t
TickHistogram::quarterCount(unsigned q) const
{
    std::uint64_t n = 0;
    for (unsigned i = q << kQuarterBits; i < (q + 1) << kQuarterBits; ++i)
        n += buckets_[i];
    return n;
}

unsigned
TickHistogram::numModes() const
{
    constexpr double kMinPeakFrac = 0.02;
    constexpr double kValleyRatio = 0.5;
    if (count_ == 0)
        return 0;

    std::array<double, kNumQuarters> q;
    for (unsigned i = 0; i < kNumQuarters; ++i)
        q[i] = static_cast<double>(quarterCount(i));
    double min_peak =
        std::max(1.0, kMinPeakFrac * static_cast<double>(count_));

    // Significant local maxima of the quarter profile.
    std::vector<unsigned> maxima;
    for (unsigned i = 0; i < kNumQuarters; ++i) {
        if (q[i] < min_peak)
            continue;
        double left = i > 0 ? q[i - 1] : -1;
        double right = i + 1 < kNumQuarters ? q[i + 1] : -1;
        if (q[i] >= left && q[i] > right)
            maxima.push_back(i);
    }
    if (maxima.empty())
        return 1;

    // Merge adjacent maxima unless the valley between them is deep
    // enough relative to the smaller peak.
    unsigned modes = 1;
    double prev_peak = q[maxima.front()];
    unsigned prev_idx = maxima.front();
    for (std::size_t m = 1; m < maxima.size(); ++m) {
        double peak = q[maxima[m]];
        double valley = peak;
        for (unsigned i = prev_idx + 1; i < maxima[m]; ++i)
            valley = std::min(valley, q[i]);
        if (valley < kValleyRatio * std::min(prev_peak, peak)) {
            ++modes;
            prev_peak = peak;
        } else {
            prev_peak = std::max(prev_peak, peak);
        }
        prev_idx = maxima[m];
    }
    return modes;
}

double
TickHistogram::percentileTicks(double p) const
{
    if (count_ == 0)
        return 0.0;
    double target = p / 100.0 * static_cast<double>(count_);
    std::uint64_t seen = 0;
    for (unsigned i = 0; i < kNumBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        double next = static_cast<double>(seen + buckets_[i]);
        if (next >= target) {
            double frac =
                (target - static_cast<double>(seen)) /
                static_cast<double>(buckets_[i]);
            double v = static_cast<double>(bucketLow(i)) +
                       frac * static_cast<double>(bucketWidth(i));
            return std::clamp(v, static_cast<double>(minT_),
                              static_cast<double>(maxT_));
        }
        seen += buckets_[i];
    }
    return static_cast<double>(maxT_);
}

double
TickHistogram::percentile(double p) const
{
    return toNs(1) * percentileTicks(p);
}

void
TickHistogram::dump(std::ostream &os, const std::string &prefix) const
{
    std::string base = prefix + name();
    os << std::left << std::setw(44) << (base + "::samples") << ' '
       << std::right << std::setw(14) << count_ << "  # " << desc()
       << '\n';
    os << std::left << std::setw(44) << (base + "::mean") << ' '
       << std::right << std::setw(14) << mean() << '\n';
    os << std::left << std::setw(44) << (base + "::min") << ' '
       << std::right << std::setw(14) << toNs(minT_) << '\n';
    os << std::left << std::setw(44) << (base + "::max") << ' '
       << std::right << std::setw(14) << toNs(maxT_) << '\n';
    os << std::left << std::setw(44) << (base + "::p50") << ' '
       << std::right << std::setw(14) << percentile(50) << '\n';
    os << std::left << std::setw(44) << (base + "::p95") << ' '
       << std::right << std::setw(14) << percentile(95) << '\n';
    os << std::left << std::setw(44) << (base + "::p99") << ' '
       << std::right << std::setw(14) << percentile(99) << '\n';
}

void
TickHistogram::dumpJson(std::ostream &os) const
{
    os << "{\"samples\": " << count_ << ", \"mean\": " << mean()
       << ", \"min\": " << toNs(minT_) << ", \"max\": " << toNs(maxT_)
       << ", \"p50\": " << percentile(50)
       << ", \"p95\": " << percentile(95)
       << ", \"p99\": " << percentile(99) << ", \"buckets\": [";
    bool first = true;
    for (unsigned i = 0; i < kNumBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        if (!first)
            os << ", ";
        first = false;
        os << '[' << i << ", " << buckets_[i] << ']';
    }
    os << "]}";
}

void
TickHistogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sumTicks_ = 0;
    minT_ = 0;
    maxT_ = 0;
}

void
TickHistogram::checkpoint(ckpt::Io &io, const std::string &key)
{
    io.fields(key + ".meta", count_, sumTicks_, minT_, maxT_);
    // Sparse [index, count] pairs: latencies cluster, so almost all
    // of the log-linear index space is empty.
    io.pairs(key + ".buckets", buckets_);
}

} // namespace stats
} // namespace dramctrl
