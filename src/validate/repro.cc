#include "validate/repro.hh"

#include <fstream>
#include <sstream>

#include "harness/config_file.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace validate {

namespace {

constexpr const char *kFormat = "dramctrl-fuzz-repro-v2";

Json
streamParamsToJson(const StreamParams &sp)
{
    Json j = Json::object();
    j.set("numRequests", sp.numRequests);
    j.set("windowSize", sp.windowSize);
    j.set("readPct", sp.readPct);
    j.set("minITT", sp.minITT);
    j.set("maxITT", sp.maxITT);
    j.set("mixedSizes", sp.mixedSizes);
    j.set("blockSize", sp.blockSize);
    return j;
}

void
streamParamsFromJson(const Json &j, StreamParams &sp)
{
    sp.numRequests = j["numRequests"].asUInt(sp.numRequests);
    sp.windowSize = j["windowSize"].asUInt(sp.windowSize);
    sp.readPct = static_cast<unsigned>(j["readPct"].asUInt(sp.readPct));
    sp.minITT = j["minITT"].asUInt(sp.minITT);
    sp.maxITT = j["maxITT"].asUInt(sp.maxITT);
    sp.mixedSizes = j["mixedSizes"].asBool(sp.mixedSizes);
    sp.blockSize = static_cast<unsigned>(
        j["blockSize"].asUInt(sp.blockSize));
}

Json
streamToJson(const RequestStream &stream)
{
    // Compact row form: [gap, addr, size, isRead].
    Json arr = Json::array();
    for (const StreamRequest &r : stream.reqs) {
        Json row = Json::array();
        row.push(r.gap);
        row.push(r.addr);
        row.push(r.size);
        row.push(r.isRead);
        arr.push(row);
    }
    return arr;
}

void
streamFromJson(const Json &arr, RequestStream &stream)
{
    stream.reqs.clear();
    stream.reqs.reserve(arr.size());
    for (const Json &row : arr.items()) {
        StreamRequest r;
        r.gap = row.at(0).asUInt();
        r.addr = row.at(1).asUInt();
        r.size = static_cast<unsigned>(row.at(2).asUInt(64));
        r.isRead = row.at(3).asBool(true);
        stream.reqs.push_back(r);
    }
}

Json
optsToJson(const DiffOptions &opts)
{
    Json j = Json::object();
    j.set("bandwidthRelTol", opts.bandwidthRelTol);
    j.set("bandwidthAbsSlackNs", opts.bandwidthAbsSlackNs);
    j.set("latencyRelTol", opts.latencyRelTol);
    j.set("latencyAbsSlackNs", opts.latencyAbsSlackNs);
    j.set("saturationRatio", opts.saturationRatio);
    j.set("congestionFactor", opts.congestionFactor);
    j.set("maxTicks", opts.maxTicks);
    j.set("injectTRCDScale", opts.injectTRCDScale);
    j.set("injectPracSkip", opts.injectPracSkip);
    j.set("injectTRFCpbScale", opts.injectTRFCpbScale);
    j.set("injectRefPbStallFlat", opts.injectRefPbStallFlat);
    j.set("audit", opts.audit);
    j.set("runCycle", opts.runCycle);
    return j;
}

void
optsFromJson(const Json &j, DiffOptions &opts)
{
    opts.bandwidthRelTol =
        j["bandwidthRelTol"].asDouble(opts.bandwidthRelTol);
    opts.bandwidthAbsSlackNs =
        j["bandwidthAbsSlackNs"].asDouble(opts.bandwidthAbsSlackNs);
    opts.latencyRelTol = j["latencyRelTol"].asDouble(opts.latencyRelTol);
    opts.latencyAbsSlackNs =
        j["latencyAbsSlackNs"].asDouble(opts.latencyAbsSlackNs);
    opts.saturationRatio =
        j["saturationRatio"].asDouble(opts.saturationRatio);
    opts.congestionFactor =
        j["congestionFactor"].asDouble(opts.congestionFactor);
    opts.maxTicks = j["maxTicks"].asUInt(opts.maxTicks);
    opts.injectTRCDScale =
        j["injectTRCDScale"].asDouble(opts.injectTRCDScale);
    opts.injectPracSkip =
        j["injectPracSkip"].asBool(opts.injectPracSkip);
    opts.injectTRFCpbScale =
        j["injectTRFCpbScale"].asDouble(opts.injectTRFCpbScale);
    opts.injectRefPbStallFlat = static_cast<unsigned>(
        j["injectRefPbStallFlat"].asUInt(opts.injectRefPbStallFlat));
    opts.audit = j["audit"].asBool(opts.audit);
    opts.runCycle = j["runCycle"].asBool(opts.runCycle);
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
    j.set("streamParams", streamParamsToJson(repro.fc.stream));
    j.set("streamSeed", repro.streamSeed);
    j.set("options", optsToJson(repro.opts));
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
    repro.note = j["note"].asString();
    repro.fc.presetName = j["preset"].asString();
    repro.fc.cfg = DRAMCtrlConfig{};
    if (!harness::configFromJson(j["config"], repro.fc.cfg, nullptr, err))
        return false;
    streamParamsFromJson(j["streamParams"], repro.fc.stream);
    repro.streamSeed = j["streamSeed"].asUInt();
    optsFromJson(j["options"], repro.opts);
    if (j.has("stream"))
        streamFromJson(j["stream"], repro.stream);
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
