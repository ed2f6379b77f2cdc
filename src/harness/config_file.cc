#include "harness/config_file.hh"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "ckpt/ckpt.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "harness/multichannel.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace harness {

namespace {

using validate::FieldTable;
using validate::Json;
using validate::failAt;
using validate::inNs;
using validate::readFields;
using validate::writeFields;

constexpr const char *kFormat = "dramctrl-config-v1";

const FieldTable<DRAMOrg> kOrgFields = {
    {"burstLength", &DRAMOrg::burstLength},
    {"deviceBusWidth", &DRAMOrg::deviceBusWidth},
    {"devicesPerRank", &DRAMOrg::devicesPerRank},
    {"ranksPerChannel", &DRAMOrg::ranksPerChannel},
    {"banksPerRank", &DRAMOrg::banksPerRank},
    {"bankGroupsPerRank", &DRAMOrg::bankGroupsPerRank},
    {"pseudoChannels", &DRAMOrg::pseudoChannels},
    {"rowBufferSize", &DRAMOrg::rowBufferSize},
    {"channelCapacity", &DRAMOrg::channelCapacity},
};

// Durations travel in ns (%.17g survives the tick round-trip exactly).
const FieldTable<DRAMTiming> kTimingFields = {
    {"tCK", &DRAMTiming::tCK, inNs},
    {"tBURST", &DRAMTiming::tBURST, inNs},
    {"tRCD", &DRAMTiming::tRCD, inNs},
    {"tCL", &DRAMTiming::tCL, inNs},
    {"tRP", &DRAMTiming::tRP, inNs},
    {"tRAS", &DRAMTiming::tRAS, inNs},
    {"tWR", &DRAMTiming::tWR, inNs},
    {"tWTR", &DRAMTiming::tWTR, inNs},
    {"tRTW", &DRAMTiming::tRTW, inNs},
    {"tRRD", &DRAMTiming::tRRD, inNs},
    {"tXAW", &DRAMTiming::tXAW, inNs},
    {"tREFI", &DRAMTiming::tREFI, inNs},
    {"tRFC", &DRAMTiming::tRFC, inNs},
    {"tCCD_L", &DRAMTiming::tCCD_L, inNs},
    {"tCCD_S", &DRAMTiming::tCCD_S, inNs},
    {"tRRD_L", &DRAMTiming::tRRD_L, inNs},
    {"tRFCsb", &DRAMTiming::tRFCsb, inNs},
    {"activationLimit", &DRAMTiming::activationLimit},
};

/** The controller's own knobs: DRAMCtrlConfig but org, timing, plugins. */
const FieldTable<DRAMCtrlConfig> kControllerFields = {
    {"readBufferSize", &DRAMCtrlConfig::readBufferSize},
    {"writeBufferSize", &DRAMCtrlConfig::writeBufferSize},
    {"writeHighThreshold", &DRAMCtrlConfig::writeHighThreshold},
    {"writeLowThreshold", &DRAMCtrlConfig::writeLowThreshold},
    {"minWritesPerSwitch", &DRAMCtrlConfig::minWritesPerSwitch},
    {"schedPolicy", &DRAMCtrlConfig::schedPolicy, dramctrl::toString,
     schedPolicyFromString},
    {"addrMapping", &DRAMCtrlConfig::addrMapping, dramctrl::toString,
     addrMappingFromString},
    {"pagePolicy", &DRAMCtrlConfig::pagePolicy, dramctrl::toString,
     pagePolicyFromString},
    {"frontendLatency", &DRAMCtrlConfig::frontendLatency, inNs},
    {"backendLatency", &DRAMCtrlConfig::backendLatency, inNs},
    {"maxAccessesPerRow", &DRAMCtrlConfig::maxAccessesPerRow},
    {"enablePowerDown", &DRAMCtrlConfig::enablePowerDown},
    {"powerDownDelay", &DRAMCtrlConfig::powerDownDelay, inNs},
    {"tXP", &DRAMCtrlConfig::tXP, inNs},
    {"enableSelfRefresh", &DRAMCtrlConfig::enableSelfRefresh},
    {"selfRefreshDelay", &DRAMCtrlConfig::selfRefreshDelay, inNs},
    {"tXS", &DRAMCtrlConfig::tXS, inNs},
    {"requestorPriorities", &DRAMCtrlConfig::requestorPriorities},
    {"temperatureC", &DRAMCtrlConfig::temperatureC},
    {"perRankRefresh", &DRAMCtrlConfig::perRankRefresh},
};

const FieldTable<PluginSpec> kPluginFields = {
    {"kind", &PluginSpec::kind},
    {"eccDataBits", &PluginSpec::eccDataBits},
    {"eccCheckBits", &PluginSpec::eccCheckBits},
    {"eccCorrectBits", &PluginSpec::eccCorrectBits},
    {"eccDetectBits", &PluginSpec::eccDetectBits},
    {"eccBer", &PluginSpec::eccBer},
    {"eccSeed", &PluginSpec::eccSeed},
    {"pracThreshold", &PluginSpec::pracThreshold},
    {"tRFM", &PluginSpec::tRFM, inNs},
    {"tRFCpb", &PluginSpec::tRFCpb, inNs},
};

/** The document's top-level keys: these sections and two strings. */
constexpr const char *kSections[] = {"format", "preset", "organisation",
                                     "timing", "controller", "plugins"};

bool
pluginsFromJson(const Json &j, DRAMCtrlConfig &cfg, std::string *err)
{
    const std::string where = "plugins";
    if (!j.isArray())
        return failAt(err, where, "must be an array");
    cfg.plugins.clear();
    for (const Json &row : j.items()) {
        if (!row.isObject())
            return failAt(err, where, "entries must be objects");
        PluginSpec ps;
        if (!readFields(row, where, kPluginFields, ps, err))
            return false;
        if (ps.kind.empty())
            return failAt(err, where, "entry without a kind");
        cfg.plugins.push_back(ps);
    }
    return true;
}

/** Read the top-level string @p key into @p out when it is present. */
bool
getString(const Json &j, const char *key, std::string &out,
          std::string *err)
{
    std::string why;
    if (j.has(key) && !validate::readAs(j[key], key, out, why))
        return failAt(err, "config", why);
    return true;
}

} // namespace

bool
configFromJson(const Json &j, DRAMCtrlConfig &cfg,
               std::string *base_preset, std::string *err)
{
    const std::string where = "config";
    if (!j.isObject())
        return failAt(err, where, "root must be an object");
    for (const auto &kv : j.members()) {
        if (std::find(std::begin(kSections), std::end(kSections),
                      kv.first) == std::end(kSections))
            return failAt(err, where, "unknown key '" + kv.first + "'");
    }
    std::string format;
    if (!getString(j, "format", format, err))
        return false;
    if (j.has("format") && format != kFormat)
        return failAt(err, where,
                      "unknown format '" + format + "' (expected '" +
                          kFormat + "')");
    std::string preset;
    if (!getString(j, "preset", preset, err))
        return false;
    if (!preset.empty()) {
        if (!presets::hasPreset(preset))
            return failAt(err, where,
                          "unknown preset '" + preset + "'");
        cfg = presets::byName(preset);
    }
    if (base_preset)
        *base_preset = preset;
    auto section = [&](const char *key, const auto &table, auto &s) {
        return !j.has(key) || readFields(j[key], key, table, s, err);
    };
    return section("organisation", kOrgFields, cfg.org) &&
           section("timing", kTimingFields, cfg.timing) &&
           section("controller", kControllerFields, cfg) &&
           (!j.has("plugins") || pluginsFromJson(j["plugins"], cfg, err));
}

bool
parseConfigText(const std::string &text, DRAMCtrlConfig &cfg,
                std::string *base_preset, std::string *err)
{
    Json j;
    if (!validate::parseJson(text, j, err))
        return false;
    return configFromJson(j, cfg, base_preset, err);
}

DRAMCtrlConfig
loadConfigFile(const std::string &path, std::string *base_preset)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file '%s'", path.c_str());
    std::ostringstream ss;
    ss << in.rdbuf();
    DRAMCtrlConfig cfg;
    std::string err;
    if (!parseConfigText(ss.str(), cfg, base_preset, &err))
        fatal("config file '%s': %s", path.c_str(), err.c_str());
    cfg.check();
    return cfg;
}

validate::Json
configToJson(const DRAMCtrlConfig &cfg, const std::string &preset_name)
{
    Json j = Json::object();
    j.set("format", kFormat);
    if (!preset_name.empty())
        j.set("preset", preset_name);
    j.set("organisation", writeFields(kOrgFields, cfg.org));
    j.set("timing", writeFields(kTimingFields, cfg.timing));
    j.set("controller", writeFields(kControllerFields, cfg));
    Json plugins = Json::array();
    for (const PluginSpec &ps : cfg.plugins)
        plugins.push(writeFields(kPluginFields, ps));
    j.set("plugins", plugins);
    return j;
}

std::string
dumpConfig(const DRAMCtrlConfig &cfg, const std::string &preset_name)
{
    return configToJson(cfg, preset_name).dump(2) + "\n";
}

bool
writeConfigFile(const std::string &path, const DRAMCtrlConfig &cfg,
                const std::string &preset_name)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << dumpConfig(cfg, preset_name);
    return static_cast<bool>(out);
}

std::string
registerConfigPreset(const std::string &path)
{
    std::string base;
    DRAMCtrlConfig cfg = loadConfigFile(path, &base);
    std::string name = base.empty() ? "config:" + path : base;
    presets::registerPreset(name, [cfg] { return cfg; });
    return name;
}

ResolvedConfig
resolveConfig(const ConfigRequest &req)
{
    ResolvedConfig r;
    r.preset = req.preset;
    if (!req.configFile.empty()) {
        r.preset = registerConfigPreset(req.configFile);
        r.cfg = presets::byName(r.preset);
    } else if (isSystemPreset(req.preset)) {
        MultiChannelConfig sys = systemPresetByName(req.preset);
        r.cfg = sys.ctrl;
        r.channels = sys.channels;
    } else {
        r.cfg = presets::byName(req.preset);
    }
    DRAMCtrlConfig &cfg = r.cfg;
    if (!req.page.empty() && !pagePolicyFromString(req.page, cfg.pagePolicy))
        fatal("unknown page policy '%s'", req.page.c_str());
    if (!req.mapping.empty() &&
        !addrMappingFromString(req.mapping, cfg.addrMapping))
        fatal("unknown address mapping '%s'", req.mapping.c_str());
    if (!req.sched.empty() &&
        !schedPolicyFromString(req.sched, cfg.schedPolicy))
        fatal("unknown scheduler '%s'", req.sched.c_str());
    if (req.temperatureC)
        cfg.temperatureC = *req.temperatureC;
    if (req.powerDown)
        cfg.enablePowerDown = true;
    if (!req.plugins.empty()) {
        std::string err;
        if (!plugin::parsePluginList(req.plugins, cfg, err))
            fatal("%s", err.c_str());
        for (PluginSpec &ps : cfg.plugins) {
            if (ps.kind == "ecc") {
                if (req.eccBer >= 0)
                    ps.eccBer = req.eccBer;
                if (req.eccSeed)
                    ps.eccSeed = req.eccSeed;
            } else if (ps.kind == "prac" && req.pracThreshold) {
                ps.pracThreshold = req.pracThreshold;
            }
        }
    }
    cfg.check();
    return r;
}

std::uint64_t
configFingerprint(const DRAMCtrlConfig &cfg)
{
    return ckpt::fnv1a(cfg.describe());
}

} // namespace harness
} // namespace dramctrl
