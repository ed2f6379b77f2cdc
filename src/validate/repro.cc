#include "validate/repro.hh"

#include <algorithm>
#include <fstream>
#include <iterator>
#include <sstream>

#include "harness/config_file.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace validate {

namespace {

constexpr const char *kFormat = "dramctrl-fuzz-repro-v2";

const std::string kTopLevelKeys[] = {
    "format",       "note",       "preset",  "config",
    "streamParams", "streamSeed", "options", "stream",
};

const FieldTable<StreamParams> kStreamParamsFields = {
    {"numRequests", &StreamParams::numRequests},
    {"windowSize", &StreamParams::windowSize},
    {"readPct", &StreamParams::readPct},
    {"minITT", &StreamParams::minITT},
    {"maxITT", &StreamParams::maxITT},
    {"mixedSizes", &StreamParams::mixedSizes},
    {"blockSize", &StreamParams::blockSize},
    {"idlePause", &StreamParams::idlePause},
};

const FieldTable<DiffOptions> kOptionsFields = {
    {"bandwidthRelTol", &DiffOptions::bandwidthRelTol},
    {"bandwidthAbsSlackNs", &DiffOptions::bandwidthAbsSlackNs},
    {"latencyRelTol", &DiffOptions::latencyRelTol},
    {"latencyAbsSlackNs", &DiffOptions::latencyAbsSlackNs},
    {"saturationRatio", &DiffOptions::saturationRatio},
    {"congestionFactor", &DiffOptions::congestionFactor},
    {"maxTicks", &DiffOptions::maxTicks},
    {"injectTRCDScale", &DiffOptions::injectTRCDScale},
    {"injectPracSkip", &DiffOptions::injectPracSkip},
    {"injectTRFCpbScale", &DiffOptions::injectTRFCpbScale},
    {"injectRefPbStallFlat", &DiffOptions::injectRefPbStallFlat},
    {"audit", &DiffOptions::audit},
    {"runCycle", &DiffOptions::runCycle},
};

Json
streamToJson(const RequestStream &stream)
{
    // Compact row form: [gap, addr, size, isRead], the gap measured
    // from the previous request (the first one's from tick 0).
    Json arr = Json::array();
    Tick prev = 0;
    for (const TraceEntry &e : stream) {
        Json row = Json::array();
        row.push(e.tick - prev);
        row.push(e.addr);
        row.push(e.size);
        row.push(e.isRead);
        arr.push(row);
        prev = e.tick;
    }
    return arr;
}

/** Read the compact rows [gap, addr, size, isRead] into @p stream. */
bool
streamFromJson(const Json &arr, RequestStream &stream, std::string *err)
{
    if (!arr.isArray())
        return failAt(err, "stream", "must be an array of rows");
    stream.clear();
    stream.reserve(arr.size());
    std::string why;
    Tick tick = 0;
    for (std::size_t i = 0; i < arr.size(); ++i) {
        const Json &row = arr.at(i);
        const std::string where = "stream[" + std::to_string(i) + "]";
        if (!row.isArray() || row.size() != 4)
            return failAt(err, where, "must be [gap, addr, size, isRead]");
        Tick gap = 0;
        TraceEntry e;
        if (!readAs(row.at(0), "gap", gap, why) ||
            !readAs(row.at(1), "addr", e.addr, why) ||
            !readAs(row.at(2), "size", e.size, why) ||
            !readAs(row.at(3), "isRead", e.isRead, why))
            return failAt(err, where, why);
        if (gap > kMaxTick - tick)
            return failAt(err, where, "gap sum overflows the tick range");
        tick += gap;
        e.tick = tick;
        stream.push_back(e);
    }
    return true;
}

} // namespace

RequestStream
ReproFile::materialise() const
{
    return stream.empty() ? generateStream(fc.stream, streamSeed)
                          : stream;
}

Json
toJson(const ReproFile &repro)
{
    Json j = Json::object();
    j.set("format", kFormat);
    j.set("note", repro.note);
    j.set("preset", repro.fc.presetName);
    j.set("config", harness::configToJson(repro.fc.cfg));
    j.set("streamParams",
          writeFields(kStreamParamsFields, repro.fc.stream));
    j.set("streamSeed", repro.streamSeed);
    j.set("options", writeFields(kOptionsFields, repro.opts));
    if (!repro.stream.empty())
        j.set("stream", streamToJson(repro.stream));
    return j;
}

bool
fromJson(const Json &j, ReproFile &repro, std::string *err)
{
    if (!j.isObject()) {
        if (err)
            *err = "repro root is not an object";
        return false;
    }
    if (j["format"].asString() != kFormat) {
        if (err)
            *err = "unknown repro format '" + j["format"].asString() +
                   "' (expected '" + kFormat + "')";
        return false;
    }
    for (const auto &kv : j.members()) {
        if (std::find(std::begin(kTopLevelKeys), std::end(kTopLevelKeys),
                      kv.first) == std::end(kTopLevelKeys))
            return failAt(err, "top level", "unknown key '" + kv.first + "'");
    }
    std::string why;
    if ((j.has("note") && !readAs(j["note"], "note", repro.note, why)) ||
        (j.has("preset") &&
         !readAs(j["preset"], "preset", repro.fc.presetName, why)) ||
        (j.has("streamSeed") &&
         !readAs(j["streamSeed"], "streamSeed", repro.streamSeed, why)))
        return failAt(err, "top level", why);
    repro.fc.cfg = DRAMCtrlConfig{};
    if (!harness::configFromJson(j["config"], repro.fc.cfg, nullptr, err))
        return false;
    if (j.has("streamParams") &&
        !readFields(j["streamParams"], "streamParams", kStreamParamsFields,
                    repro.fc.stream, err))
        return false;
    if (j.has("options") &&
        !readFields(j["options"], "options", kOptionsFields, repro.opts,
                    err))
        return false;
    if (j.has("stream") && !streamFromJson(j["stream"], repro.stream, err))
        return false;
    return true;
}

bool
writeReproFile(const std::string &path, const ReproFile &repro)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << toJson(repro).dump(2) << "\n";
    return static_cast<bool>(out);
}

bool
loadReproFile(const std::string &path, ReproFile &repro,
              std::string *err)
{
    std::ifstream in(path);
    if (!in) {
        if (err)
            *err = "cannot open '" + path + "'";
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    Json j;
    if (!parseJson(ss.str(), j, err))
        return false;
    return fromJson(j, repro, err);
}

DiffResult
replay(const ReproFile &repro)
{
    return runDiffStream(repro.fc, repro.materialise(), repro.opts);
}

} // namespace validate
} // namespace dramctrl
