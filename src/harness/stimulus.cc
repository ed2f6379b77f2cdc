/**
 * @file
 * Turning a Stimulus into generators, for both systems. One channel
 * gets one generator over the channel. N channels get one generator
 * per channel, each in its own slice of the address space, with an
 * even share of the requests and a seed derived from (seed, generator
 * index). The trace pattern replays a file instead: one player, or on
 * a multi-channel system one player per recorded source.
 */

#include <algorithm>

#include "exec/batch_runner.hh"
#include "harness/multichannel.hh"
#include "harness/testbench.hh"
#include "sim/logging.hh"
#include "trafficgen/dram_gen.hh"
#include "trafficgen/linear_gen.hh"
#include "trafficgen/random_gen.hh"
#include "trafficgen/trace_file.hh"

namespace dramctrl {
namespace harness {

bool
checkStimulus(const Stimulus &s, unsigned channels, std::string *err)
{
    auto reject = [err](const std::string &why) {
        if (err != nullptr)
            *err = why;
        return false;
    };
    if (s.pattern != "linear" && s.pattern != "random" &&
        s.pattern != "dram" && s.pattern != "trace")
        return reject("unknown pattern '" + s.pattern + "'");
    if (s.pattern == "trace" && s.tracePath.empty())
        return reject("the trace pattern needs a trace path");
    if (s.traceScale <= 0)
        return reject("trace time scale must be positive");
    if (s.readPct > 100)
        return reject("read percentage above 100");
    if (channels == 0)
        return reject("channels must be at least 1");
    if (channels > 1 && s.pattern == "dram")
        return reject("the dram pattern is bank-aware and "
                      "single-channel; use linear or random");
    return true;
}

namespace {

/** Generator knobs for @p s over at most 64 MiB of @p capacity. */
GenConfig
genConfigOf(const Stimulus &s, std::uint64_t capacity)
{
    GenConfig gc;
    gc.windowSize = std::min<std::uint64_t>(capacity, 1ULL << 26);
    gc.readPct = s.readPct;
    gc.minITT = gc.maxITT = fromNs(s.ittNs);
    gc.numRequests = s.requests;
    gc.seed = s.seed;
    return gc;
}

} // namespace

void
SingleChannelSystem::addStimulus(const Stimulus &s)
{
    if (s.pattern == "trace") {
        addGen<TracePlayer>(
            makeTracePlayerConfig(s.tracePath, s.traceScale));
        return;
    }
    const DRAMCtrlConfig &cfg = ctrl_->config();
    GenConfig gc = genConfigOf(s, cfg.org.channelCapacity);
    if (s.pattern == "linear") {
        addGen<LinearGen>(gc);
    } else if (s.pattern == "random") {
        addGen<RandomGen>(gc);
    } else if (s.pattern == "dram") {
        DramGenConfig dgc;
        static_cast<GenConfig &>(dgc) = gc;
        dgc.org = cfg.org;
        dgc.mapping = cfg.addrMapping;
        dgc.strideBytes = s.strideBytes;
        dgc.numBanksTarget = s.banks;
        addGen<DramGen>(dgc);
    } else {
        fatal("unknown pattern '%s'", s.pattern.c_str());
    }
}

void
MultiChannelSystem::addStimulus(const Stimulus &s)
{
    if (s.pattern == "trace") {
        // One player per recorded source id, each streaming the same
        // file filtered to its own records and sharded like a
        // generator, so the original per-requestor streams reappear
        // whatever the thread count.
        unsigned sources = 1;
        if (traceFormatOf(s.tracePath) == TraceFormat::Dtrc)
            sources = TraceReader(s.tracePath, /*verify_crc=*/false)
                          .info()
                          .numSources;
        for (unsigned src = 0; src < sources; ++src) {
            unsigned index = numGens() + numPlayers();
            RequestorId id = static_cast<RequestorId>(index);
            Simulator::ShardScope scope(sim_, index % sim_.numShards());
            auto player = std::make_unique<TracePlayer>(
                sim_, "player" + std::to_string(index),
                makeTracePlayerConfig(
                    s.tracePath, s.traceScale,
                    sources > 1 ? static_cast<int>(src) : -1),
                id);
            player->port().bind(xbar_->addFrontPort(id));
            players_.push_back(std::move(player));
        }
        return;
    }
    if (s.pattern != "linear" && s.pattern != "random")
        fatal("pattern '%s' cannot drive %u channels", s.pattern.c_str(),
              numChannels());
    GenConfig gc = genConfigOf(s, totalCapacity());
    gc.numRequests =
        std::max<std::uint64_t>(1, s.requests / numChannels());
    for (unsigned i = 0; i < numChannels(); ++i) {
        GenConfig g =
            sliceGenWindow(gc, i, numChannels(), totalCapacity());
        g.seed = exec::deriveSeed(s.seed, i);
        if (s.pattern == "linear")
            addGen<LinearGen>(g);
        else
            addGen<RandomGen>(g);
    }
}

} // namespace harness
} // namespace dramctrl
