/**
 * @file
 * Unit tests for the statistics framework: scalar/average/vector/
 * formula semantics, group trees, dumping, reset, and the tick
 * histogram (including the bimodality detector used by the Fig. 7
 * reproduction).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "ckpt/ckpt.hh"
#include "sim/logging.hh"
#include "stats/stats.hh"
#include "stats/tick_histogram.hh"

namespace dramctrl {
namespace {

using namespace stats;

TEST(ScalarTest, AccumulatesAndResets)
{
    Group g("g");
    Scalar s(&g, "s", "a scalar");
    EXPECT_EQ(s.value(), 0.0);
    s += 5;
    ++s;
    s -= 2;
    EXPECT_EQ(s.value(), 4.0);
    s.reset();
    EXPECT_EQ(s.value(), 0.0);
    s = 42;
    EXPECT_EQ(s.value(), 42.0);
}

TEST(AverageTest, ComputesMean)
{
    Group g("g");
    Average a(&g, "a", "an average");
    EXPECT_EQ(a.value(), 0.0);
    a.sample(10);
    a.sample(20);
    a.sample(30);
    EXPECT_DOUBLE_EQ(a.value(), 20.0);
    EXPECT_EQ(a.count(), 3u);
    a.reset();
    EXPECT_EQ(a.count(), 0u);
}

TEST(VectorTest, PerElementAndTotal)
{
    Group g("g");
    Vector v(&g, "v", "a vector", 4);
    v[0] += 1;
    v[3] += 9;
    EXPECT_EQ(v[0], 1.0);
    EXPECT_EQ(v[3], 9.0);
    EXPECT_EQ(v.total(), 10.0);
    v.reset();
    EXPECT_EQ(v.total(), 0.0);
}

TEST(VectorTest, OutOfRangeThrows)
{
    Group g("g");
    Vector v(&g, "v", "a vector", 2);
    EXPECT_THROW(v[5] += 1, std::out_of_range);
}

TEST(FormulaTest, EvaluatesLazily)
{
    Group g("g");
    Scalar num(&g, "num", "");
    Scalar den(&g, "den", "");
    Formula f(&g, "f", "ratio", [&] {
        return den.value() > 0 ? num.value() / den.value() : 0.0;
    });
    EXPECT_EQ(f.value(), 0.0);
    num += 6;
    den += 3;
    EXPECT_DOUBLE_EQ(f.value(), 2.0);
}

TEST(GroupTest, FullPathAndLookup)
{
    Group root("system");
    Group child("ctrl", &root);
    Scalar s(&child, "reads", "read count");
    EXPECT_EQ(child.fullPath(), "system.ctrl");
    EXPECT_EQ(child.find("reads"), &s);
    EXPECT_EQ(child.find("nope"), nullptr);
}

TEST(GroupTest, DuplicateStatNamePanics)
{
    setThrowOnError(true);
    Group g("g");
    Scalar a(&g, "x", "");
    EXPECT_THROW(Scalar(&g, "x", ""), std::runtime_error);
    setThrowOnError(false);
}

TEST(GroupTest, NullParentPanics)
{
    setThrowOnError(true);
    EXPECT_THROW(Scalar(nullptr, "x", ""), std::runtime_error);
    setThrowOnError(false);
}

TEST(GroupTest, DumpContainsPathsValuesAndDescriptions)
{
    Group root("system");
    Group child("mem", &root);
    Scalar s(&child, "bytes", "bytes moved");
    s += 128;
    std::ostringstream os;
    root.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("system.mem.bytes"), std::string::npos);
    EXPECT_NE(out.find("128"), std::string::npos);
    EXPECT_NE(out.find("bytes moved"), std::string::npos);
}

TEST(GroupTest, ResetAllRecursesAndRunsCallbacks)
{
    Group root("system");
    Group child("mem", &root);
    Scalar a(&root, "a", "");
    Scalar b(&child, "b", "");
    a += 1;
    b += 2;
    int callbacks = 0;
    child.onReset([&] { ++callbacks; });
    root.resetAll();
    EXPECT_EQ(a.value(), 0.0);
    EXPECT_EQ(b.value(), 0.0);
    EXPECT_EQ(callbacks, 1);
}

TEST(TickHistogramTest, MeanMinMax)
{
    Group g("g");
    TickHistogram h(&g, "h", "hist");
    h.sample(fromNs(10));
    h.sample(fromNs(20));
    h.sample(fromNs(30));
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 20.0);
    EXPECT_EQ(h.minTicks(), fromNs(10));
    EXPECT_EQ(h.maxTicks(), fromNs(30));
    EXPECT_EQ(h.sumTicks(), fromNs(60));
}

TEST(TickHistogramTest, PercentilesAreMonotoneAndClamped)
{
    Group g("g");
    TickHistogram h(&g, "h", "hist");
    for (int i = 0; i < 1000; ++i)
        h.sample(fromNs(3 + i % 97));
    double prev = h.percentile(0);
    EXPECT_DOUBLE_EQ(prev, 3.0); // the minimum, not the bucket edge
    for (double p = 5; p <= 100; p += 5) {
        double v = h.percentile(p);
        EXPECT_GE(v, prev) << "p" << p;
        prev = v;
    }
    EXPECT_DOUBLE_EQ(h.percentile(100), 99.0); // clamped to the maximum
    EXPECT_NEAR(h.percentile(50), 51.0, 51.0 / 16);
}

TEST(TickHistogramTest, BucketEdgesAtOctaveBoundaries)
{
    using TH = TickHistogram;
    // Exact below 32 ticks.
    EXPECT_EQ(TH::indexOf(31), 31u);
    EXPECT_EQ(TH::bucketLow(31), 31u);
    EXPECT_EQ(TH::bucketWidth(31), 1u);
    // 32 opens the first octave of 2-tick buckets, 64 of 4-tick ones.
    EXPECT_EQ(TH::indexOf(32), 32u);
    EXPECT_EQ(TH::indexOf(33), 32u);
    EXPECT_EQ(TH::bucketWidth(32), 2u);
    EXPECT_EQ(TH::indexOf(63), 47u);
    EXPECT_EQ(TH::indexOf(64), 48u);
    EXPECT_EQ(TH::bucketLow(48), 64u);
    EXPECT_EQ(TH::bucketWidth(48), 4u);
    EXPECT_EQ(TH::indexOf(~Tick{0}), TH::kNumBuckets - 1);

    // Each value lies in its bucket, on both sides of every octave
    // edge, and the bucket after it starts where it ends.
    for (unsigned k = 1; k < 64; ++k) {
        for (Tick t : {(Tick{1} << k) - 1, Tick{1} << k,
                       (Tick{1} << k) + 1}) {
            unsigned i = TH::indexOf(t);
            EXPECT_LE(TH::bucketLow(i), t) << t;
            EXPECT_LT(t - TH::bucketLow(i), TH::bucketWidth(i)) << t;
            if (i + 1 < TH::kNumBuckets) {
                EXPECT_EQ(TH::bucketLow(i + 1),
                          TH::bucketLow(i) + TH::bucketWidth(i));
            }
        }
    }

    // The mode grid: from 16 ticks up, four quarters per octave.
    for (unsigned q = 4; q + 1 < TH::kNumQuarters; ++q) {
        Tick octave = TH::bucketLow((q << TH::kQuarterBits) & ~15u);
        EXPECT_EQ(TH::quarterLow(q + 1) - TH::quarterLow(q), octave / 4)
            << "quarter " << q;
    }
}

TEST(TickHistogramTest, CoversTheWholeTickRange)
{
    // The grid is fixed and spans every Tick: a sample far above the
    // rest needs no regrid and loses no mass.
    Group g("g");
    TickHistogram h(&g, "h", "hist");
    const Tick big = Tick{1} << 62;
    h.sample(1);
    h.sample(big);
    EXPECT_EQ(h.bucketCount(TickHistogram::indexOf(1)), 1u);
    EXPECT_EQ(h.bucketCount(TickHistogram::indexOf(big)), 1u);
    std::uint64_t total = 0;
    for (unsigned i = 0; i < TickHistogram::kNumBuckets; ++i)
        total += h.bucketCount(i);
    EXPECT_EQ(total, 2u);
    EXPECT_EQ(h.maxTicks(), big);
    EXPECT_DOUBLE_EQ(h.percentile(100), toNs(big));
    EXPECT_DOUBLE_EQ(h.percentile(0), toNs(1));
}

TEST(TickHistogramTest, QuarterGridPreservesCounts)
{
    Group g("g");
    TickHistogram h(&g, "h", "hist");
    for (Tick t = 0; t < 5000; t += 7)
        h.sample(t);
    h.sample(fromNs(500)); // one far sample in a sparse quarter

    // Each quarter holds its four native buckets, and no sample is
    // lost or counted twice by the merge.
    std::uint64_t total = 0;
    for (unsigned q = 0; q < TickHistogram::kNumQuarters; ++q) {
        std::uint64_t native = 0;
        for (unsigned i = 0; i < 4; ++i)
            native += h.bucketCount(4 * q + i);
        EXPECT_EQ(h.quarterCount(q), native) << "quarter " << q;
        total += h.quarterCount(q);
    }
    EXPECT_EQ(total, h.count());

    // A sample lands in the quarter whose bounds enclose it.
    for (Tick t : {Tick{0}, Tick{17}, Tick{4999}, fromNs(500)}) {
        unsigned q = TickHistogram::indexOf(t) >> TickHistogram::kQuarterBits;
        EXPECT_LE(TickHistogram::quarterLow(q), t) << t;
        EXPECT_LT(t, TickHistogram::quarterLow(q + 1)) << t;
    }
}

TEST(TickHistogramTest, ResetClearsEverything)
{
    Group g("g");
    TickHistogram h(&g, "h", "hist");
    h.sample(fromNs(100));
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sumTicks(), 0u);
    EXPECT_EQ(h.mean(), 0.0);
    EXPECT_EQ(h.maxTicks(), 0u);
    EXPECT_EQ(h.bucketCount(TickHistogram::indexOf(fromNs(100))), 0u);
    EXPECT_EQ(h.numModes(), 0u);
}

TEST(TickHistogramTest, UnimodalDistributionHasOneMode)
{
    Group g("g");
    TickHistogram h(&g, "h", "hist");
    // A tight cluster around 50 ns.
    for (int i = 0; i < 1000; ++i)
        h.sample(fromNs(45 + i % 10));
    EXPECT_EQ(h.numModes(), 1u);
}

TEST(TickHistogramTest, BimodalDistributionHasTwoModes)
{
    Group g("g");
    TickHistogram h(&g, "h", "hist");
    // Two well-separated clusters, like the write-drain read latency
    // distribution of the paper's Figure 7.
    for (int i = 0; i < 500; ++i)
        h.sample(fromNs(40 + i % 5));
    for (int i = 0; i < 500; ++i)
        h.sample(fromNs(400 + i % 5));
    EXPECT_EQ(h.numModes(), 2u);
}

/** Round-trip one stat through a single-section checkpoint. */
template <typename StatT>
std::string
saveStat(StatT &stat)
{
    std::ostringstream os;
    {
        ckpt::CkptOut out(os);
        ckpt::Io io(out);
        io.section("stats", [&] { stat.checkpoint(io, "s"); });
    }
    return os.str();
}

template <typename StatT>
void
restoreStat(StatT &stat, const std::string &buf)
{
    std::istringstream is(buf);
    ckpt::CkptIn in(is);
    ckpt::Io io(in);
    io.section("stats", [&] { stat.checkpoint(io, "s"); });
}

TEST(StatsCkpt, ScalarRestoreAssignsNotAccumulates)
{
    Group g("g");
    Scalar a(&g, "s", "src");
    a += 17;
    const std::string buf = saveStat(a);

    Group g2("g");
    Scalar b(&g2, "s", "dst");
    b += 99; // pre-restore garbage that must be overwritten
    restoreStat(b, buf);
    EXPECT_EQ(b.value(), 17.0);

    // A second restore must not double anything either.
    restoreStat(b, buf);
    EXPECT_EQ(b.value(), 17.0);
}

TEST(StatsCkpt, AverageRestorePreservesSumAndCount)
{
    Group g("g");
    Average a(&g, "s", "src");
    a.sample(10);
    a.sample(20);
    const std::string buf = saveStat(a);

    Group g2("g");
    Average b(&g2, "s", "dst");
    b.sample(1000); // must be discarded by the restore
    restoreStat(b, buf);
    EXPECT_EQ(b.value(), 15.0);
    b.sample(30);
    EXPECT_EQ(b.value(), 20.0); // (10+20+30)/3: count restored too
}

TEST(StatsCkpt, TickHistogramRestoreDoesNotDoubleCountWarmupBins)
{
    Group g("g");
    TickHistogram a(&g, "s", "src");
    for (int i = 0; i < 100; ++i)
        a.sample(fromNs(40 + i % 5));
    const std::string buf = saveStat(a);

    // The restore target has already seen samples (the double-count
    // hazard of --ckpt-restore after a warmup run): restore must
    // overwrite the bins, not add to them.
    Group g2("g");
    TickHistogram b(&g2, "s", "dst");
    for (int i = 0; i < 1000; ++i)
        b.sample(fromNs(200));
    restoreStat(b, buf);

    EXPECT_EQ(b.count(), 100u);
    EXPECT_EQ(b.sumTicks(), a.sumTicks());
    EXPECT_EQ(b.minTicks(), a.minTicks());
    EXPECT_EQ(b.maxTicks(), a.maxTicks());
    std::uint64_t total = 0;
    for (unsigned i = 0; i < TickHistogram::kNumBuckets; ++i) {
        EXPECT_EQ(b.bucketCount(i), a.bucketCount(i)) << "bucket " << i;
        total += b.bucketCount(i);
    }
    EXPECT_EQ(total, 100u); // no stale bins left behind

    // A second restore must not double anything either.
    restoreStat(b, buf);
    EXPECT_EQ(b.count(), 100u);
    EXPECT_EQ(b.percentile(99), a.percentile(99));
}

/** A checkpoint holding one tick-histogram record "s". */
std::string
tickHistogramRecord(std::vector<std::uint64_t> meta,
                    std::vector<std::uint64_t> buckets)
{
    std::ostringstream os;
    {
        ckpt::CkptOut out(os);
        ckpt::Io io(out);
        io.section("stats", [&] {
            io.list("s.meta", meta);
            io.list("s.buckets", buckets);
        });
    }
    return os.str();
}

TEST(StatsCkpt, TickHistogramBucketOffTheGridIsFatal)
{
    // A record written on another grid names a bucket this one lacks.
    const std::string buf = tickHistogramRecord(
        {1, 1, 1, 1}, {TickHistogram::kNumBuckets, 1});
    Group g("g");
    TickHistogram h(&g, "s", "dst");
    setThrowOnError(true);
    EXPECT_THROW(restoreStat(h, buf), std::runtime_error);
    setThrowOnError(false);

    // The last bucket of the grid restores.
    restoreStat(h, tickHistogramRecord(
                       {1, 1, 1, 1}, {TickHistogram::kNumBuckets - 1, 1}));
    EXPECT_EQ(h.bucketCount(TickHistogram::kNumBuckets - 1), 1u);
}

TEST(StatsCkpt, TickHistogramMalformedRecordIsFatal)
{
    Group g("g");
    TickHistogram h(&g, "s", "dst");
    setThrowOnError(true);
    // meta must be {count, sumTicks, min, max}.
    EXPECT_THROW(restoreStat(h, tickHistogramRecord({1, 1, 1}, {1, 1})),
                 std::runtime_error);
    // buckets are [index, count] pairs.
    EXPECT_THROW(restoreStat(h, tickHistogramRecord({1, 1, 1, 1}, {1})),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(StatsCkpt, VectorRestoreOverwritesEveryLane)
{
    Group g("g");
    Vector a(&g, "s", "src", 3);
    a[0] += 1;
    a[1] += 2;
    a[2] += 3;
    const std::string buf = saveStat(a);

    Group g2("g");
    Vector b(&g2, "s", "dst", 3);
    b[0] += 50;
    restoreStat(b, buf);
    EXPECT_EQ(b[0], 1.0);
    EXPECT_EQ(b[1], 2.0);
    EXPECT_EQ(b[2], 3.0);

    Group g3("g");
    Vector c(&g3, "s", "dst", 4); // size mismatch must be fatal
    setThrowOnError(true);
    EXPECT_THROW(restoreStat(c, buf), std::runtime_error);
    setThrowOnError(false);
}

} // namespace
} // namespace dramctrl
