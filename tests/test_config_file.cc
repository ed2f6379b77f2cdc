/**
 * @file
 * Declarative config loader tests (`ctest -R config_file`).
 *
 * The JSON schema round-trips exactly: dumping any configuration and
 * reparsing the text must reproduce a fingerprint-identical
 * configuration (timings travel as nanosecond doubles printed with
 * enough digits to survive the tick conversion). The suite fuzzes the
 * round-trip across fuzzer-drawn configurations over every registered
 * preset, locks the committed examples/ddr4.json to the ddr4_2400
 * preset byte-for-byte, and checks that malformed inputs — unknown
 * keys, type mismatches, truncated files, bogus enum values, counts
 * that are fractional, negative or too large for their field,
 * durations that are negative or not finite — fail with errors that
 * name the offending section and key.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "dram/dram_presets.hh"
#include "harness/config_file.hh"
#include "sim/logging.hh"
#include "sim/random.hh"
#include "validate/config_fuzzer.hh"

namespace dramctrl {
namespace {

using harness::configFingerprint;
using harness::dumpConfig;
using harness::loadConfigFile;
using harness::parseConfigText;

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.is_open()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------
// Round-trip exactness.
// ---------------------------------------------------------------

TEST(ConfigFile, EveryPresetRoundTripsFingerprintIdentical)
{
    for (const std::string &name : presets::names()) {
        DRAMCtrlConfig cfg = presets::byName(name);
        std::string text = dumpConfig(cfg);

        DRAMCtrlConfig back;
        std::string err;
        ASSERT_TRUE(parseConfigText(text, back, nullptr, &err))
            << name << ": " << err;
        EXPECT_EQ(configFingerprint(cfg), configFingerprint(back))
            << name << ": dump/reparse drifted:\n"
            << cfg.describe() << "\nvs\n"
            << back.describe();
    }
}

TEST(ConfigFile, FuzzedConfigsRoundTripFingerprintIdentical)
{
    // Fuzzer-drawn configurations cover the knob space (queue depths,
    // policies, latencies, plugins, randomised organisations) far
    // beyond the preset factories.
    Random rng(2024);
    validate::FuzzerOptions fopts;
    fopts.standards = presets::names();
    fopts.withPlugins = true;
    for (int i = 0; i < 40; ++i) {
        validate::FuzzCase fc = validate::sampleCase(rng, fopts);
        std::string text = dumpConfig(fc.cfg, fc.presetName);

        DRAMCtrlConfig back;
        std::string base;
        std::string err;
        ASSERT_TRUE(parseConfigText(text, back, &base, &err))
            << "case " << i << " (" << fc.presetName
            << "): " << err;
        EXPECT_EQ(base, fc.presetName);
        EXPECT_EQ(configFingerprint(fc.cfg), configFingerprint(back))
            << "case " << i << " (" << fc.presetName
            << ") drifted:\n"
            << fc.cfg.describe() << "\nvs\n"
            << back.describe();

        // Second generation: dumping the reparsed config must emit
        // the identical text (a fixed point, not just a close orbit).
        EXPECT_EQ(text, dumpConfig(back, fc.presetName));
    }
}

TEST(ConfigFile, PresetBaseWithOverridesAppliesOnTop)
{
    DRAMCtrlConfig want = presets::byName("ddr4_2400");
    want.readBufferSize = 48;
    want.timing.tRCD = fromNs(16.0);

    const std::string text = R"({
        "preset": "ddr4_2400",
        "timing": {"tRCD": 16.0},
        "controller": {"readBufferSize": 48}
    })";
    DRAMCtrlConfig got;
    std::string base;
    std::string err;
    ASSERT_TRUE(parseConfigText(text, got, &base, &err)) << err;
    EXPECT_EQ(base, "ddr4_2400");
    EXPECT_EQ(configFingerprint(want), configFingerprint(got));
}

// ---------------------------------------------------------------
// The committed example must equal the preset it transcribes.
// ---------------------------------------------------------------

TEST(ConfigFile, ExampleDdr4MatchesPresetExactly)
{
    const std::string path = std::string(EXAMPLES_DIR) + "/ddr4.json";
    std::string base;
    DRAMCtrlConfig fromFile = loadConfigFile(path, &base);
    EXPECT_EQ(base, "ddr4_2400");

    DRAMCtrlConfig fromPreset = presets::byName("ddr4_2400");
    EXPECT_EQ(configFingerprint(fromFile),
              configFingerprint(fromPreset))
        << "examples/ddr4.json drifted from the ddr4_2400 preset:\n"
        << fromFile.describe() << "\nvs\n"
        << fromPreset.describe();

    // And the example is the dump's fixed point, so --dump-config of
    // a --config run reproduces the file byte-for-byte.
    EXPECT_EQ(readFile(path), dumpConfig(fromFile, base));
}

// ---------------------------------------------------------------
// Malformed inputs fail with errors naming section and key.
// ---------------------------------------------------------------

struct MalformedCase
{
    std::string name;
    std::string text;
    /** Substring the error message must contain. */
    std::string expect;
};

class ConfigFileMalformed
    : public ::testing::TestWithParam<MalformedCase>
{
};

TEST_P(ConfigFileMalformed, IsRejectedWithClearError)
{
    const MalformedCase &c = GetParam();
    DRAMCtrlConfig cfg;
    std::string err;
    EXPECT_FALSE(parseConfigText(c.text, cfg, nullptr, &err))
        << c.name << ": accepted malformed input";
    EXPECT_NE(err.find(c.expect), std::string::npos)
        << c.name << ": error '" << err
        << "' does not mention '" << c.expect << "'";
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, ConfigFileMalformed,
    ::testing::Values(
        MalformedCase{"unknown_top_key",
                      R"({"organization": {}})", "organization"},
        MalformedCase{"unknown_timing_key",
                      R"({"timing": {"tRCDx": 14.0}})", "tRCDx"},
        MalformedCase{"unknown_org_key",
                      R"({"organisation": {"bankGroups": 4}})",
                      "bankGroups"},
        MalformedCase{"timing_type_mismatch",
                      R"({"timing": {"tRCD": "fast"}})", "tRCD"},
        MalformedCase{"org_type_mismatch",
                      R"({"organisation": {"banksPerRank": true}})",
                      "banksPerRank"},
        MalformedCase{"bool_type_mismatch",
                      R"({"controller": {"enablePowerDown": 1}})",
                      "enablePowerDown"},
        MalformedCase{"bad_enum",
                      R"({"controller": {"pagePolicy": "ajar"}})",
                      "ajar"},
        MalformedCase{"unknown_preset",
                      R"({"preset": "ddr9_9999"})", "ddr9_9999"},
        MalformedCase{"bad_format",
                      R"({"format": "dramctrl-config-v999"})",
                      "dramctrl-config-v999"},
        MalformedCase{"truncated", R"({"timing": {"tRCD": 14)", ""},
        MalformedCase{"not_an_object", R"([1, 2, 3])", "object"},
        MalformedCase{"plugin_without_kind",
                      R"({"plugins": [{"pracThreshold": 4}]})",
                      "kind"},
        // Numbers are refused, not truncated, wrapped or cast.
        MalformedCase{"count_wraps",
                      R"({"organisation": {"banksPerRank": 4294967304}})",
                      "organisation: 'banksPerRank' must be a whole "
                      "number from 0 to 4294967295"},
        MalformedCase{"count_fraction",
                      R"({"organisation": {"banksPerRank": 8.7}})",
                      "organisation: 'banksPerRank' must be a whole"},
        MalformedCase{"count_negative",
                      R"({"controller": {"minWritesPerSwitch": -1}})",
                      "controller: 'minWritesPerSwitch' must be a whole"},
        MalformedCase{"buffer_wraps",
                      R"({"controller": {"readBufferSize": 4294967328}})",
                      "controller: 'readBufferSize' must be a whole"},
        MalformedCase{"u64_count_too_large",
                      R"({"organisation": {"rowBufferSize": 2e20}})",
                      "organisation: 'rowBufferSize' must be a whole"},
        MalformedCase{"priority_fraction",
                      R"({"controller": {"requestorPriorities": [1, 2.5]}})",
                      "controller: 'requestorPriorities' entries must be "
                      "whole numbers"},
        MalformedCase{"plugin_count_fraction",
                      R"({"plugins": [{"kind": "prac",
                                       "pracThreshold": 4.5}]})",
                      "plugins: 'pracThreshold' must be a whole"},
        MalformedCase{"negative_tRCD",
                      R"({"timing": {"tRCD": -5}})",
                      "timing: 'tRCD' must be a finite, non-negative"},
        MalformedCase{"negative_tRFCsb",
                      R"({"timing": {"tRFCsb": -5}})",
                      "timing: 'tRFCsb' must be a finite, non-negative"},
        MalformedCase{"negative_tCCD_L",
                      R"({"timing": {"tCCD_L": -1}})",
                      "timing: 'tCCD_L' must be a finite, non-negative"},
        MalformedCase{"infinite_duration",
                      R"({"controller": {"tXS": 1e999}})",
                      "controller: 'tXS' must be a finite, non-negative"},
        MalformedCase{"duration_past_a_tick",
                      R"({"plugins": [{"kind": "prac", "tRFM": 2e16}]})",
                      "plugins: 'tRFM' must be a finite, non-negative"}),
    [](const ::testing::TestParamInfo<MalformedCase> &info) {
        return info.param.name;
    });

TEST(ConfigFile, MissingFileIsFatal)
{
    setThrowOnError(true);
    EXPECT_THROW(loadConfigFile("/nonexistent/nope.json"),
                 std::runtime_error);
    setThrowOnError(false);
}

TEST(ConfigFile, SemanticallyInvalidConfigFailsCheck)
{
    // Parses fine, but tCCD_S above tBURST cannot be honoured by the
    // event model's bus serialisation — DRAMTiming::check() rejects
    // it when the loader validates.
    const std::string text = R"({
        "preset": "ddr4_2400",
        "timing": {"tCCD_S": 50.0}
    })";
    DRAMCtrlConfig cfg;
    std::string err;
    ASSERT_TRUE(parseConfigText(text, cfg, nullptr, &err)) << err;
    setThrowOnError(true);
    EXPECT_THROW(cfg.check(), std::runtime_error);
    setThrowOnError(false);
}

// ---------------------------------------------------------------
// The tools' config resolver.
// ---------------------------------------------------------------

TEST(ConfigFile, ResolvePresetAppliesEveryOverride)
{
    harness::ConfigRequest req;
    req.preset = "ddr3_1600";
    req.page = "closed";
    req.mapping = "RoCoRaBaCh";
    req.sched = "fcfs";
    req.temperatureC = 95.0;
    req.powerDown = true;
    req.plugins = "ecc,prac";
    req.eccBer = 1e-4;
    req.eccSeed = 7;
    req.pracThreshold = 16;
    harness::ResolvedConfig rc = harness::resolveConfig(req);

    DRAMCtrlConfig want = presets::byName("ddr3_1600");
    want.pagePolicy = PagePolicy::Closed;
    want.addrMapping = AddrMapping::RoCoRaBaCh;
    want.schedPolicy = SchedPolicy::Fcfs;
    want.temperatureC = 95.0;
    want.enablePowerDown = true;
    want.plugins.resize(2);
    want.plugins[0].kind = "ecc";
    want.plugins[0].eccBer = 1e-4;
    want.plugins[0].eccSeed = 7;
    want.plugins[1].kind = "prac";
    want.plugins[1].pracThreshold = 16;
    EXPECT_EQ(dumpConfig(rc.cfg), dumpConfig(want));
    EXPECT_EQ(rc.preset, "ddr3_1600");
    EXPECT_EQ(rc.channels, 0u);
}

TEST(ConfigFile, ResolveSystemPresetGivesItsChannels)
{
    harness::ConfigRequest req;
    req.preset = "hmc_stack_16";
    harness::ResolvedConfig rc = harness::resolveConfig(req);
    EXPECT_EQ(rc.channels, 16u);
    EXPECT_EQ(dumpConfig(rc.cfg), dumpConfig(presets::byName("hmc_vault")));
}

TEST(ConfigFile, ResolveConfigFileRegistersItAsPreset)
{
    harness::ConfigRequest req;
    req.configFile = std::string(EXAMPLES_DIR) + "/ddr4.json";
    harness::ResolvedConfig rc = harness::resolveConfig(req);
    // The file names ddr4_2400 as its base, so it goes by that name.
    EXPECT_EQ(rc.preset, "ddr4_2400");
    EXPECT_EQ(dumpConfig(rc.cfg), dumpConfig(presets::byName(rc.preset)));
    EXPECT_EQ(configFingerprint(rc.cfg),
              configFingerprint(loadConfigFile(req.configFile)));
}

TEST(ConfigFile, ResolveRejectsUnknownNames)
{
    harness::ConfigRequest page, mapping, sched, plugins;
    page.page = mapping.mapping = sched.sched = plugins.plugins = "bogus";
    setThrowOnError(true);
    for (const harness::ConfigRequest &req : {page, mapping, sched, plugins})
        EXPECT_THROW(harness::resolveConfig(req), std::runtime_error);
    setThrowOnError(false);
}

} // namespace
} // namespace dramctrl
