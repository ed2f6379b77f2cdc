/**
 * @file
 * Replays the repro files committed under tests/repros/.
 *
 * Each file is a self-contained fuzz scenario (ISSUE: the
 * `validate_repro` target). Files whose note starts with
 * "expect-fail" capture a recorded failure — typically an injected
 * fault — and must still fail when replayed; all other files are
 * regression scenarios that must pass. Either way the replay
 * exercises the full load -> materialise -> differential-run path on
 * real files, not in-memory JSON. The config a repro embeds is a
 * dramctrl-config-v1 document, so every knob survives the file and a
 * misspelt key is an error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "dram/dram_presets.hh"
#include "harness/config_file.hh"
#include "validate/repro.hh"

#ifndef DRAMCTRL_REPRO_DIR
#error "DRAMCTRL_REPRO_DIR must point at tests/repros"
#endif

namespace dramctrl {
namespace validate {
namespace {

std::vector<std::string>
reproFiles()
{
    std::vector<std::string> files;
    for (const auto &e :
         std::filesystem::directory_iterator(DRAMCTRL_REPRO_DIR))
        if (e.path().extension() == ".json")
            files.push_back(e.path().string());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(ValidateRepro, CommittedReprosReplayAsRecorded)
{
    std::vector<std::string> files = reproFiles();
    ASSERT_FALSE(files.empty())
        << "no repro files in " << DRAMCTRL_REPRO_DIR;

    for (const std::string &path : files) {
        SCOPED_TRACE(path);
        ReproFile repro;
        std::string err;
        ASSERT_TRUE(loadReproFile(path, repro, &err)) << err;
        ASSERT_FALSE(repro.materialise().empty());

        bool expectFail = repro.note.rfind("expect-fail", 0) == 0;
        DiffResult dr = replay(repro);
        if (expectFail)
            EXPECT_FALSE(dr.pass)
                << "recorded failure no longer reproduces";
        else
            EXPECT_TRUE(dr.pass) << dr.describe();
    }
}

/** A repro whose config sets knobs no preset sets. */
ReproFile
unusualRepro()
{
    ReproFile repro;
    repro.fc.presetName = "ddr4_2400";
    repro.fc.cfg = presets::byName("ddr4_2400");
    DRAMCtrlConfig &cfg = repro.fc.cfg;
    cfg.enablePowerDown = true;
    cfg.powerDownDelay = fromNs(37.5);
    cfg.tXP = fromNs(7.25);
    cfg.enableSelfRefresh = true;
    cfg.selfRefreshDelay = fromNs(2345.0);
    cfg.tXS = fromNs(211.0);
    cfg.temperatureC = 93.5;
    cfg.requestorPriorities = {3, 0, 7};
    cfg.plugins.resize(1);
    cfg.plugins[0].kind = "prac";
    cfg.plugins[0].pracThreshold = 9;
    repro.streamSeed = 5;
    repro.note = "round trip";
    return repro;
}

TEST(ValidateRepro, ConfigRoundTripsEveryField)
{
    const ReproFile repro = unusualRepro();
    const std::string path =
        (std::filesystem::temp_directory_path() / "repro_round_trip.json")
            .string();
    ASSERT_TRUE(writeReproFile(path, repro));
    ReproFile back;
    std::string err;
    ASSERT_TRUE(loadReproFile(path, back, &err)) << err;
    std::filesystem::remove(path);

    const DRAMCtrlConfig &a = repro.fc.cfg;
    const DRAMCtrlConfig &b = back.fc.cfg;
    EXPECT_EQ(b.powerDownDelay, a.powerDownDelay);
    EXPECT_EQ(b.tXP, a.tXP);
    EXPECT_EQ(b.selfRefreshDelay, a.selfRefreshDelay);
    EXPECT_EQ(b.tXS, a.tXS);
    EXPECT_EQ(b.temperatureC, a.temperatureC);
    EXPECT_EQ(b.requestorPriorities, a.requestorPriorities);
    // Every other knob, field by field, through the config document.
    EXPECT_EQ(harness::dumpConfig(b), harness::dumpConfig(a));
    EXPECT_EQ(back.fc.presetName, repro.fc.presetName);
}

TEST(ValidateRepro, MisspeltConfigKeyIsRejected)
{
    std::string text = toJson(unusualRepro()).dump(2);
    std::size_t at = text.find("\"tRCD\"");
    ASSERT_NE(at, std::string::npos);
    text.replace(at, 6, "\"tRDC\"");
    Json j;
    std::string err;
    ASSERT_TRUE(parseJson(text, j, &err)) << err;
    ReproFile back;
    EXPECT_FALSE(fromJson(j, back, &err));
    EXPECT_NE(err.find("unknown key 'tRDC'"), std::string::npos) << err;
}

TEST(ValidateRepro, MisspeltOrMistypedStreamOrOptionKeyIsRejected)
{
    struct Case
    {
        const char *section;
        const char *key;
        Json value;
        const char *expect;
    };
    const Case cases[] = {
        {"streamParams", "numRequest", Json(5), "unknown key 'numRequest'"},
        {"streamParams", "readPct", Json(70.5),
         "'readPct' must be a whole number"},
        {"options", "audit", Json("yes"), "'audit' must be a boolean"},
        {"options", "maxTick", Json(5), "unknown key 'maxTick'"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.key);
        Json j = toJson(unusualRepro());
        Json section = j[c.section];
        section.set(c.key, c.value);
        j.set(c.section, section);
        ReproFile back;
        std::string err;
        EXPECT_FALSE(fromJson(j, back, &err));
        EXPECT_NE(err.find(std::string(c.section) + ": " + c.expect),
                  std::string::npos)
            << err;
    }
}

TEST(ValidateRepro, TopLevelKeysAndStreamRowsAreChecked)
{
    Json row = Json::array();
    row.push(Json(2814));
    row.push(Json(1799152));
    row.push(Json(32));
    row.push(Json(true));
    struct Case
    {
        const char *key;
        int rowIndex; ///< row entry to replace, or -1: set key itself
        Json value;
        const char *expect;
    };
    const Case cases[] = {
        {"streamSed", -1, Json(5), "top level: unknown key 'streamSed'"},
        {"streamSeed", -1, Json(1.5),
         "top level: 'streamSeed' must be a whole number"},
        {"note", -1, Json(3), "top level: 'note' must be a string"},
        {"stream", 0, Json(1.5), "stream[0]: 'gap' must be a whole number"},
        {"stream", 1, Json("x"), "stream[0]: 'addr' must be a number"},
        {"stream", 2, Json(-64), "stream[0]: 'size' must be a whole number"},
        {"stream", 3, Json(1), "stream[0]: 'isRead' must be a boolean"},
        {"stream", 4, Json(1), "stream[0]: must be [gap, addr, size, isRead]"},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.expect);
        Json j = toJson(unusualRepro());
        if (c.rowIndex < 0) {
            j.set(c.key, c.value);
        } else {
            Json bad = Json::array();
            for (int i = 0; i < 4; ++i)
                bad.push(i == c.rowIndex ? c.value : row.at(i));
            if (c.rowIndex == 4)
                bad.push(c.value);
            Json rows = Json::array();
            rows.push(bad);
            rows.push(row);
            j.set(c.key, rows);
        }
        ReproFile back;
        std::string err;
        EXPECT_FALSE(fromJson(j, back, &err));
        EXPECT_NE(err.find(c.expect), std::string::npos) << err;
    }

    Json rows = Json::array();
    rows.push(row);
    Json j = toJson(unusualRepro());
    j.set("stream", rows);
    ReproFile back;
    std::string err;
    ASSERT_TRUE(fromJson(j, back, &err)) << err;
    ASSERT_EQ(back.stream.size(), 1u);
    EXPECT_EQ(back.stream[0].tick, 2814u);
    EXPECT_EQ(back.stream[0].addr, 1799152u);
    EXPECT_EQ(back.stream[0].size, 32u);
    EXPECT_TRUE(back.stream[0].isRead);
}

TEST(ValidateRepro, StreamGapsBecomeTicksAndBack)
{
    // Rows keep the gap form; in memory the stream holds absolute
    // ticks, and a gap sum past the tick range is refused.
    auto rowOf = [](std::uint64_t gap) {
        Json row = Json::array();
        row.push(Json(gap));
        row.push(Json(64));
        row.push(Json(64));
        row.push(Json(false));
        return row;
    };
    Json rows = Json::array();
    for (std::uint64_t gap : {100u, 0u, 250u})
        rows.push(rowOf(gap));
    Json j = toJson(unusualRepro());
    j.set("stream", rows);
    ReproFile back;
    std::string err;
    ASSERT_TRUE(fromJson(j, back, &err)) << err;
    ASSERT_EQ(back.stream.size(), 3u);
    EXPECT_EQ(back.stream[0].tick, 100u);
    EXPECT_EQ(back.stream[1].tick, 100u);
    EXPECT_EQ(back.stream[2].tick, 350u);
    EXPECT_EQ(toJson(back)["stream"].dump(), rows.dump());

    Json huge = Json::array();
    huge.push(rowOf(kMaxTick - 10));
    huge.push(rowOf(11));
    j.set("stream", huge);
    EXPECT_FALSE(fromJson(j, back, &err));
    EXPECT_NE(err.find("stream[1]: gap sum overflows"), std::string::npos)
        << err;
}

TEST(ValidateRepro, VersionOneFileNamesTheExpectedFormat)
{
    Json j = toJson(unusualRepro());
    j.set("format", "dramctrl-fuzz-repro-v1");
    ReproFile back;
    std::string err;
    EXPECT_FALSE(fromJson(j, back, &err));
    EXPECT_NE(err.find("expected 'dramctrl-fuzz-repro-v2'"),
              std::string::npos)
        << err;
}

} // namespace
} // namespace validate
} // namespace dramctrl
