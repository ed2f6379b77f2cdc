#include "harness/config_file.hh"

#include <fstream>
#include <initializer_list>
#include <sstream>

#include "ckpt/ckpt.hh"
#include "dram/dram_presets.hh"
#include "dram/plugin/plugin.hh"
#include "harness/multichannel.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace harness {

namespace {

using validate::Json;

constexpr const char *kFormat = "dramctrl-config-v1";

bool
failAt(std::string *err, const std::string &where,
       const std::string &msg)
{
    if (err)
        *err = where + ": " + msg;
    return false;
}

/** Reject any member of @p j not in @p allowed — typos are errors. */
bool
checkKeys(const Json &j, const std::string &where,
          std::initializer_list<const char *> allowed, std::string *err)
{
    for (const auto &kv : j.members()) {
        bool known = false;
        for (const char *k : allowed) {
            if (kv.first == k) {
                known = true;
                break;
            }
        }
        if (!known)
            return failAt(err, where,
                          "unknown key '" + kv.first + "'");
    }
    return true;
}

template <typename T>
bool
getUInt(const Json &j, const std::string &where, const char *key,
        T &out, std::string *err)
{
    if (!j.has(key))
        return true;
    const Json &v = j[key];
    if (!v.isNumber())
        return failAt(err, where,
                      std::string("'") + key + "' must be a number");
    out = static_cast<T>(v.asUInt());
    return true;
}

bool
getDouble(const Json &j, const std::string &where, const char *key,
          double &out, std::string *err)
{
    if (!j.has(key))
        return true;
    const Json &v = j[key];
    if (!v.isNumber())
        return failAt(err, where,
                      std::string("'") + key + "' must be a number");
    out = v.asDouble();
    return true;
}

/** Read a duration given in nanoseconds into a tick field. */
bool
getNs(const Json &j, const std::string &where, const char *key,
      Tick &out, std::string *err)
{
    if (!j.has(key))
        return true;
    const Json &v = j[key];
    if (!v.isNumber())
        return failAt(err, where,
                      std::string("'") + key +
                          "' must be a number (nanoseconds)");
    out = fromNs(v.asDouble());
    return true;
}

bool
getBool(const Json &j, const std::string &where, const char *key,
        bool &out, std::string *err)
{
    if (!j.has(key))
        return true;
    const Json &v = j[key];
    if (v.type() != Json::Type::Bool)
        return failAt(err, where,
                      std::string("'") + key + "' must be a boolean");
    out = v.asBool();
    return true;
}

bool
getString(const Json &j, const std::string &where, const char *key,
          std::string &out, std::string *err)
{
    if (!j.has(key))
        return true;
    const Json &v = j[key];
    if (v.type() != Json::Type::String)
        return failAt(err, where,
                      std::string("'") + key + "' must be a string");
    out = v.asString();
    return true;
}

bool
orgFromJson(const Json &j, DRAMOrg &org, std::string *err)
{
    const std::string where = "organisation";
    if (!j.isObject())
        return failAt(err, where, "must be an object");
    if (!checkKeys(j, where,
                   {"burstLength", "deviceBusWidth", "devicesPerRank",
                    "ranksPerChannel", "banksPerRank",
                    "bankGroupsPerRank", "pseudoChannels",
                    "rowBufferSize", "channelCapacity"},
                   err))
        return false;
    return getUInt(j, where, "burstLength", org.burstLength, err) &&
           getUInt(j, where, "deviceBusWidth", org.deviceBusWidth,
                   err) &&
           getUInt(j, where, "devicesPerRank", org.devicesPerRank,
                   err) &&
           getUInt(j, where, "ranksPerChannel", org.ranksPerChannel,
                   err) &&
           getUInt(j, where, "banksPerRank", org.banksPerRank, err) &&
           getUInt(j, where, "bankGroupsPerRank",
                   org.bankGroupsPerRank, err) &&
           getUInt(j, where, "pseudoChannels", org.pseudoChannels,
                   err) &&
           getUInt(j, where, "rowBufferSize", org.rowBufferSize,
                   err) &&
           getUInt(j, where, "channelCapacity", org.channelCapacity,
                   err);
}

bool
timingFromJson(const Json &j, DRAMTiming &t, std::string *err)
{
    const std::string where = "timing";
    if (!j.isObject())
        return failAt(err, where, "must be an object");
    if (!checkKeys(j, where,
                   {"tCK", "tBURST", "tRCD", "tCL", "tRP", "tRAS",
                    "tWR", "tWTR", "tRTW", "tRRD", "tXAW", "tREFI",
                    "tRFC", "tCCD_L", "tCCD_S", "tRRD_L", "tRFCsb",
                    "activationLimit"},
                   err))
        return false;
    return getNs(j, where, "tCK", t.tCK, err) &&
           getNs(j, where, "tBURST", t.tBURST, err) &&
           getNs(j, where, "tRCD", t.tRCD, err) &&
           getNs(j, where, "tCL", t.tCL, err) &&
           getNs(j, where, "tRP", t.tRP, err) &&
           getNs(j, where, "tRAS", t.tRAS, err) &&
           getNs(j, where, "tWR", t.tWR, err) &&
           getNs(j, where, "tWTR", t.tWTR, err) &&
           getNs(j, where, "tRTW", t.tRTW, err) &&
           getNs(j, where, "tRRD", t.tRRD, err) &&
           getNs(j, where, "tXAW", t.tXAW, err) &&
           getNs(j, where, "tREFI", t.tREFI, err) &&
           getNs(j, where, "tRFC", t.tRFC, err) &&
           getNs(j, where, "tCCD_L", t.tCCD_L, err) &&
           getNs(j, where, "tCCD_S", t.tCCD_S, err) &&
           getNs(j, where, "tRRD_L", t.tRRD_L, err) &&
           getNs(j, where, "tRFCsb", t.tRFCsb, err) &&
           getUInt(j, where, "activationLimit", t.activationLimit,
                   err);
}

bool
controllerFromJson(const Json &j, DRAMCtrlConfig &cfg, std::string *err)
{
    const std::string where = "controller";
    if (!j.isObject())
        return failAt(err, where, "must be an object");
    if (!checkKeys(j, where,
                   {"readBufferSize", "writeBufferSize",
                    "writeHighThreshold", "writeLowThreshold",
                    "minWritesPerSwitch", "schedPolicy", "addrMapping",
                    "pagePolicy", "frontendLatency", "backendLatency",
                    "maxAccessesPerRow", "enablePowerDown",
                    "powerDownDelay", "tXP", "enableSelfRefresh",
                    "selfRefreshDelay", "tXS", "requestorPriorities",
                    "temperatureC", "perRankRefresh"},
                   err))
        return false;
    if (!(getUInt(j, where, "readBufferSize", cfg.readBufferSize,
                  err) &&
          getUInt(j, where, "writeBufferSize", cfg.writeBufferSize,
                  err) &&
          getDouble(j, where, "writeHighThreshold",
                    cfg.writeHighThreshold, err) &&
          getDouble(j, where, "writeLowThreshold",
                    cfg.writeLowThreshold, err) &&
          getUInt(j, where, "minWritesPerSwitch",
                  cfg.minWritesPerSwitch, err) &&
          getNs(j, where, "frontendLatency", cfg.frontendLatency,
                err) &&
          getNs(j, where, "backendLatency", cfg.backendLatency, err) &&
          getUInt(j, where, "maxAccessesPerRow", cfg.maxAccessesPerRow,
                  err) &&
          getBool(j, where, "enablePowerDown", cfg.enablePowerDown,
                  err) &&
          getNs(j, where, "powerDownDelay", cfg.powerDownDelay, err) &&
          getNs(j, where, "tXP", cfg.tXP, err) &&
          getBool(j, where, "enableSelfRefresh", cfg.enableSelfRefresh,
                  err) &&
          getNs(j, where, "selfRefreshDelay", cfg.selfRefreshDelay,
                err) &&
          getNs(j, where, "tXS", cfg.tXS, err) &&
          getDouble(j, where, "temperatureC", cfg.temperatureC, err) &&
          getBool(j, where, "perRankRefresh", cfg.perRankRefresh,
                  err)))
        return false;
    std::string name;
    if (!getString(j, where, "schedPolicy", name, err))
        return false;
    if (j.has("schedPolicy") &&
        !schedPolicyFromString(name, cfg.schedPolicy))
        return failAt(err, where, "unknown schedPolicy '" + name + "'");
    name.clear();
    if (!getString(j, where, "addrMapping", name, err))
        return false;
    if (j.has("addrMapping") &&
        !addrMappingFromString(name, cfg.addrMapping))
        return failAt(err, where, "unknown addrMapping '" + name + "'");
    name.clear();
    if (!getString(j, where, "pagePolicy", name, err))
        return false;
    if (j.has("pagePolicy") &&
        !pagePolicyFromString(name, cfg.pagePolicy))
        return failAt(err, where, "unknown pagePolicy '" + name + "'");
    if (j.has("requestorPriorities")) {
        const Json &arr = j["requestorPriorities"];
        if (!arr.isArray())
            return failAt(err, where,
                          "'requestorPriorities' must be an array");
        cfg.requestorPriorities.clear();
        for (const Json &v : arr.items()) {
            if (!v.isNumber())
                return failAt(
                    err, where,
                    "'requestorPriorities' entries must be numbers");
            cfg.requestorPriorities.push_back(
                static_cast<unsigned>(v.asUInt()));
        }
    }
    return true;
}

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
        if (!checkKeys(row, where,
                       {"kind", "eccDataBits", "eccCheckBits",
                        "eccCorrectBits", "eccDetectBits", "eccBer",
                        "eccSeed", "pracThreshold", "tRFM", "tRFCpb"},
                       err))
            return false;
        PluginSpec ps;
        if (!(getString(row, where, "kind", ps.kind, err) &&
              getUInt(row, where, "eccDataBits", ps.eccDataBits,
                      err) &&
              getUInt(row, where, "eccCheckBits", ps.eccCheckBits,
                      err) &&
              getUInt(row, where, "eccCorrectBits", ps.eccCorrectBits,
                      err) &&
              getUInt(row, where, "eccDetectBits", ps.eccDetectBits,
                      err) &&
              getDouble(row, where, "eccBer", ps.eccBer, err) &&
              getUInt(row, where, "eccSeed", ps.eccSeed, err) &&
              getUInt(row, where, "pracThreshold", ps.pracThreshold,
                      err) &&
              getNs(row, where, "tRFM", ps.tRFM, err) &&
              getNs(row, where, "tRFCpb", ps.tRFCpb, err)))
            return false;
        if (ps.kind.empty())
            return failAt(err, where, "entry without a kind");
        cfg.plugins.push_back(ps);
    }
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
    if (!checkKeys(j, where,
                   {"format", "preset", "organisation", "timing",
                    "controller", "plugins"},
                   err))
        return false;
    std::string format;
    if (!getString(j, where, "format", format, err))
        return false;
    if (j.has("format") && format != kFormat)
        return failAt(err, where,
                      "unknown format '" + format + "' (expected '" +
                          kFormat + "')");
    std::string preset;
    if (!getString(j, where, "preset", preset, err))
        return false;
    if (!preset.empty()) {
        if (!presets::hasPreset(preset))
            return failAt(err, where,
                          "unknown preset '" + preset + "'");
        cfg = presets::byName(preset);
    }
    if (base_preset)
        *base_preset = preset;
    if (j.has("organisation") &&
        !orgFromJson(j["organisation"], cfg.org, err))
        return false;
    if (j.has("timing") && !timingFromJson(j["timing"], cfg.timing, err))
        return false;
    if (j.has("controller") && !controllerFromJson(j["controller"], cfg, err))
        return false;
    if (j.has("plugins") && !pluginsFromJson(j["plugins"], cfg, err))
        return false;
    return true;
}

namespace {

Json
orgToJson(const DRAMOrg &org)
{
    Json j = Json::object();
    j.set("burstLength", org.burstLength);
    j.set("deviceBusWidth", org.deviceBusWidth);
    j.set("devicesPerRank", org.devicesPerRank);
    j.set("ranksPerChannel", org.ranksPerChannel);
    j.set("banksPerRank", org.banksPerRank);
    j.set("bankGroupsPerRank", org.bankGroupsPerRank);
    j.set("pseudoChannels", org.pseudoChannels);
    j.set("rowBufferSize", org.rowBufferSize);
    j.set("channelCapacity", org.channelCapacity);
    return j;
}

Json
timingToJson(const DRAMTiming &t)
{
    // Emitted in ns (%.17g survives the tick round-trip exactly).
    Json j = Json::object();
    j.set("tCK", toNs(t.tCK));
    j.set("tBURST", toNs(t.tBURST));
    j.set("tRCD", toNs(t.tRCD));
    j.set("tCL", toNs(t.tCL));
    j.set("tRP", toNs(t.tRP));
    j.set("tRAS", toNs(t.tRAS));
    j.set("tWR", toNs(t.tWR));
    j.set("tWTR", toNs(t.tWTR));
    j.set("tRTW", toNs(t.tRTW));
    j.set("tRRD", toNs(t.tRRD));
    j.set("tXAW", toNs(t.tXAW));
    j.set("tREFI", toNs(t.tREFI));
    j.set("tRFC", toNs(t.tRFC));
    j.set("tCCD_L", toNs(t.tCCD_L));
    j.set("tCCD_S", toNs(t.tCCD_S));
    j.set("tRRD_L", toNs(t.tRRD_L));
    j.set("tRFCsb", toNs(t.tRFCsb));
    j.set("activationLimit", t.activationLimit);
    return j;
}

Json
controllerToJson(const DRAMCtrlConfig &cfg)
{
    Json j = Json::object();
    j.set("readBufferSize", cfg.readBufferSize);
    j.set("writeBufferSize", cfg.writeBufferSize);
    j.set("writeHighThreshold", cfg.writeHighThreshold);
    j.set("writeLowThreshold", cfg.writeLowThreshold);
    j.set("minWritesPerSwitch", cfg.minWritesPerSwitch);
    j.set("schedPolicy", toString(cfg.schedPolicy));
    j.set("addrMapping", toString(cfg.addrMapping));
    j.set("pagePolicy", toString(cfg.pagePolicy));
    j.set("frontendLatency", toNs(cfg.frontendLatency));
    j.set("backendLatency", toNs(cfg.backendLatency));
    j.set("maxAccessesPerRow", cfg.maxAccessesPerRow);
    j.set("enablePowerDown", cfg.enablePowerDown);
    j.set("powerDownDelay", toNs(cfg.powerDownDelay));
    j.set("tXP", toNs(cfg.tXP));
    j.set("enableSelfRefresh", cfg.enableSelfRefresh);
    j.set("selfRefreshDelay", toNs(cfg.selfRefreshDelay));
    j.set("tXS", toNs(cfg.tXS));
    Json prio = Json::array();
    for (unsigned p : cfg.requestorPriorities)
        prio.push(p);
    j.set("requestorPriorities", prio);
    j.set("temperatureC", cfg.temperatureC);
    j.set("perRankRefresh", cfg.perRankRefresh);
    return j;
}

Json
pluginToJson(const PluginSpec &ps)
{
    Json j = Json::object();
    j.set("kind", ps.kind);
    j.set("eccDataBits", ps.eccDataBits);
    j.set("eccCheckBits", ps.eccCheckBits);
    j.set("eccCorrectBits", ps.eccCorrectBits);
    j.set("eccDetectBits", ps.eccDetectBits);
    j.set("eccBer", ps.eccBer);
    j.set("eccSeed", ps.eccSeed);
    j.set("pracThreshold", ps.pracThreshold);
    j.set("tRFM", toNs(ps.tRFM));
    j.set("tRFCpb", toNs(ps.tRFCpb));
    return j;
}

} // namespace

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
    j.set("organisation", orgToJson(cfg.org));
    j.set("timing", timingToJson(cfg.timing));
    j.set("controller", controllerToJson(cfg));
    Json plugins = Json::array();
    for (const PluginSpec &ps : cfg.plugins)
        plugins.push(pluginToJson(ps));
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
