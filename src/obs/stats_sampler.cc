#include "obs/stats_sampler.hh"

#include <cmath>

#include "ckpt/ckpt.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/logging.hh"
#include "sim/simulator.hh"

namespace dramctrl {
namespace obs {

StatsSampler::StatsSampler(Simulator &sim, std::string name,
                           Tick interval, std::ostream &os,
                           Format format)
    : SimObject(sim, std::move(name)), interval_(interval), os_(os),
      format_(format),
      sampleEvent_([this] { processSample(); },
                   this->name() + ".sampleEvent",
                   Event::kStatsPriority)
{
    if (interval_ == 0)
        fatal("stats sampler '%s' needs a non-zero interval",
              this->name().c_str());
}

StatsSampler::~StatsSampler()
{
    // The sampling event reschedules itself forever; take it off the
    // agenda so the queue never sees a dangling event.
    if (sampleEvent_.scheduled())
        deschedule(sampleEvent_);
}

bool
StatsSampler::addStat(const std::string &path)
{
    // Resolution goes through the metrics registry, which searches
    // every attached tree (the simulator's root is pre-attached), so
    // a sampler can also bind stats a tool attached separately.
    const stats::Stat *stat = simulator().metrics().resolveStat(path);
    if (stat == nullptr)
        return false;
    paths_.push_back(path);
    stats_.push_back(stat);
    return true;
}

bool
StatsSampler::addGroupStats(const std::string &group_path)
{
    const stats::Group *g = &simulator().rootStats();
    std::size_t pos = 0;
    while (pos < group_path.size()) {
        std::size_t dot = group_path.find('.', pos);
        if (dot == std::string::npos)
            dot = group_path.size();
        g = g->findChild(group_path.substr(pos, dot - pos));
        if (g == nullptr)
            return false;
        pos = dot + 1;
    }
    for (const stats::Stat *stat : g->statList()) {
        paths_.push_back(group_path + "." + stat->name());
        stats_.push_back(stat);
    }
    return true;
}

void
StatsSampler::startup()
{
    schedule(sampleEvent_, nextAligned(curTick()));
}

void
StatsSampler::writeHeader()
{
    if (headerWritten_)
        return;
    headerWritten_ = true;
    if (format_ != Format::Csv)
        return;
    os_ << "tick";
    for (const std::string &p : paths_)
        os_ << ',' << p;
    os_ << '\n';
}

void
StatsSampler::sampleNow()
{
    writeHeader();
    ++samplesTaken_;
    simulator().rootStats().fireDumpCallbacks();
    TRACE(Sampler, "sample %llu, %zu stats",
          static_cast<unsigned long long>(samplesTaken_),
          stats_.size());

    if (format_ == Format::Csv) {
        os_ << curTick();
        for (const stats::Stat *stat : stats_) {
            double v = stat->sampleValue();
            os_ << ',';
            if (std::isfinite(v))
                os_ << v;
        }
        os_ << '\n';
    } else {
        os_ << "{\"tick\": " << curTick() << ", \"values\": {";
        for (std::size_t i = 0; i < stats_.size(); ++i) {
            if (i > 0)
                os_ << ", ";
            writeJsonEscaped(os_, paths_[i]);
            os_ << ": ";
            double v = stats_[i]->sampleValue();
            if (std::isfinite(v))
                os_ << v;
            else
                os_ << "null";
        }
        os_ << "}}\n";
    }
}

void
StatsSampler::serialize(ckpt::CkptOut &out) const
{
    out.putU64("samplesTaken", samplesTaken_);
    out.putBool("headerWritten", headerWritten_);
    out.putEvent("sampleEvent", eventq(), sampleEvent_);
}

void
StatsSampler::unserialize(ckpt::CkptIn &in)
{
    samplesTaken_ = in.getU64("samplesTaken");
    headerWritten_ = in.getBool("headerWritten");
    in.getEvent("sampleEvent", eventq(), sampleEvent_);
}

void
StatsSampler::processSample()
{
    sampleNow();
    schedule(sampleEvent_, nextAligned(curTick()));
}

} // namespace obs
} // namespace dramctrl
