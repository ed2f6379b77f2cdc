/**
 * @file
 * Tests for the JSON statistics export: structural validity, value
 * fidelity for each stat type, and the full-tree dump from a live
 * simulation.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "dram/dram_ctrl.hh"
#include "sim/simulator.hh"
#include "stats/stats.hh"
#include "stats/tick_histogram.hh"
#include "test_util.hh"

namespace dramctrl {
namespace {

using namespace stats;

/** Minimal structural JSON validation: balanced braces/brackets and
 *  balanced quotes outside of strings. */
bool
structurallyValidJson(const std::string &s)
{
    int depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (char c : s) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        switch (c) {
          case '"': in_string = true; break;
          case '{':
          case '[': ++depth; break;
          case '}':
          case ']':
            if (--depth < 0)
                return false;
            break;
          default: break;
        }
    }
    return depth == 0 && !in_string;
}

TEST(StatsJsonTest, ScalarAndFormula)
{
    Group g("g");
    Scalar s(&g, "count", "");
    s += 42;
    Formula f(&g, "double_count", "", [&] { return 2 * s.value(); });

    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"count\": 42"), std::string::npos) << out;
    EXPECT_NE(out.find("\"double_count\": 84"), std::string::npos)
        << out;
}

TEST(StatsJsonTest, AverageAndVector)
{
    Group g("g");
    Average a(&g, "avg", "");
    a.sample(10);
    a.sample(20);
    Vector v(&g, "vec", "", 3);
    v[1] = 7;

    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"avg\": {\"mean\": 15, \"samples\": 2}"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("\"vec\": [0, 7, 0]"), std::string::npos)
        << out;
}

TEST(StatsJsonTest, HistogramFields)
{
    Group g("g");
    TickHistogram h(&g, "hist", "");
    h.sample(fromNs(3));
    h.sample(fromNs(5));

    std::ostringstream os;
    g.dumpJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"samples\": 2"), std::string::npos) << out;
    EXPECT_NE(out.find("\"buckets\": ["), std::string::npos) << out;
}

TEST(StatsJsonTest, NestedGroups)
{
    Group root("system");
    Group child("mem", &root);
    Scalar s(&child, "reads", "");
    s += 1;

    std::ostringstream os;
    root.dumpJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out)) << out;
    EXPECT_NE(out.find("\"mem\": {\"reads\": 1}"), std::string::npos)
        << out;
}

TEST(StatsJsonTest, FullSimulationTreeIsValid)
{
    Simulator sim;
    DRAMCtrlConfig cfg = testutil::bareTimingConfig();
    DRAMCtrl ctrl(sim, "ctrl", cfg,
                  AddrRange(0, cfg.org.channelCapacity));
    testutil::TestRequestor req(sim, "req");
    req.port().bind(ctrl.port());
    for (unsigned i = 0; i < 20; ++i)
        req.inject(0, MemCmd::ReadReq, static_cast<Addr>(i) * 64);
    sim.run(fromUs(10));

    std::ostringstream os;
    sim.dumpStatsJson(os);
    std::string out = os.str();
    EXPECT_TRUE(structurallyValidJson(out));
    EXPECT_NE(out.find("\"ctrl\""), std::string::npos);
    EXPECT_NE(out.find("\"readBursts\": 20"), std::string::npos)
        << out.substr(0, 500);
}

} // namespace
} // namespace dramctrl
