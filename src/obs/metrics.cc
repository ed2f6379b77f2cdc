#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "stats/stats.hh"
#include "stats/tick_histogram.hh"

namespace dramctrl {
namespace obs {

Counter &
MetricsRegistry::counter(const std::string &path,
                         const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (gauges_.count(path))
        fatal("metric '%s' already registered as a gauge", path.c_str());
    auto it = counters_.find(path);
    if (it == counters_.end()) {
        it = counters_.emplace(path, std::make_unique<Counter>()).first;
        if (!help.empty())
            help_[path] = help;
    }
    return *it->second;
}

Gauge &
MetricsRegistry::gauge(const std::string &path, const std::string &help)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (counters_.count(path))
        fatal("metric '%s' already registered as a counter",
              path.c_str());
    auto it = gauges_.find(path);
    if (it == gauges_.end()) {
        it = gauges_.emplace(path, std::make_unique<Gauge>()).first;
        if (!help.empty())
            help_[path] = help;
    }
    return *it->second;
}

void
MetricsRegistry::attachStats(const stats::Group *root,
                             const std::string &prefix)
{
    DC_ASSERT(root != nullptr, "attaching a null stats tree");
    std::lock_guard<std::mutex> lock(mutex_);
    trees_.push_back({root, prefix});
}

void
MetricsRegistry::detachStats(const stats::Group *root)
{
    std::lock_guard<std::mutex> lock(mutex_);
    trees_.erase(std::remove_if(trees_.begin(), trees_.end(),
                                [root](const AttachedTree &t) {
                                    return t.root == root;
                                }),
                 trees_.end());
}

const stats::Stat *
MetricsRegistry::resolveStat(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const AttachedTree &tree : trees_) {
        if (tree.prefix.empty()) {
            if (const stats::Stat *s = tree.root->resolve(path))
                return s;
        } else if (path.size() > tree.prefix.size() + 1 &&
                   path.compare(0, tree.prefix.size(), tree.prefix) ==
                       0 &&
                   path[tree.prefix.size()] == '.') {
            if (const stats::Stat *s = tree.root->resolve(
                    path.substr(tree.prefix.size() + 1)))
                return s;
        }
    }
    return nullptr;
}

namespace {

void
flattenStat(std::vector<MetricSample> &out, const std::string &path,
            const stats::Stat *stat)
{
    if (auto *th = dynamic_cast<const stats::TickHistogram *>(stat)) {
        out.push_back({path + ".count", stat->desc(),
                       static_cast<double>(th->count()), true});
        out.push_back({path + ".mean", stat->desc(), th->mean(), false});
        out.push_back({path + ".p50", stat->desc(), th->percentile(50),
                       false});
        out.push_back({path + ".p95", stat->desc(), th->percentile(95),
                       false});
        out.push_back({path + ".p99", stat->desc(), th->percentile(99),
                       false});
        return;
    }
    if (auto *v = dynamic_cast<const stats::Vector *>(stat)) {
        for (std::size_t i = 0; i < v->size(); ++i)
            out.push_back({path + "." + std::to_string(i),
                           stat->desc(), (*v)[i], false});
        return;
    }
    bool counter = dynamic_cast<const stats::Scalar *>(stat) != nullptr;
    out.push_back({path, stat->desc(), stat->sampleValue(), counter});
}

void
flattenGroup(std::vector<MetricSample> &out, const std::string &prefix,
             const stats::Group *group)
{
    for (const stats::Stat *stat : group->statList()) {
        flattenStat(out,
                    prefix.empty() ? stat->name()
                                   : prefix + "." + stat->name(),
                    stat);
    }
    for (const stats::Group *child : group->children()) {
        flattenGroup(out,
                     prefix.empty() ? child->name()
                                    : prefix + "." + child->name(),
                     child);
    }
}

std::string
promName(const std::string &path)
{
    std::string name = "dramctrl_";
    for (char c : path) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        name += ok ? c : '_';
    }
    return name;
}

void
writeValue(std::ostream &os, double v)
{
    if (std::isnan(v)) {
        os << "NaN";
    } else if (std::isinf(v)) {
        os << (v > 0 ? "+Inf" : "-Inf");
    } else if (v == static_cast<double>(static_cast<long long>(v)) &&
               std::abs(v) < 1e15) {
        os << static_cast<long long>(v);
    } else {
        auto old = os.precision(15);
        os << v;
        os.precision(old);
    }
}

} // namespace

std::vector<MetricSample>
MetricsRegistry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<MetricSample> out;
    for (const auto &kv : counters_) {
        auto help = help_.find(kv.first);
        out.push_back({kv.first,
                       help != help_.end() ? help->second : "",
                       static_cast<double>(kv.second->value()), true});
    }
    for (const auto &kv : gauges_) {
        auto help = help_.find(kv.first);
        out.push_back({kv.first,
                       help != help_.end() ? help->second : "",
                       kv.second->value(), false});
    }
    for (const AttachedTree &tree : trees_) {
        tree.root->fireDumpCallbacks();
        flattenGroup(out, tree.prefix, tree.root);
    }
    std::sort(out.begin(), out.end(),
              [](const MetricSample &a, const MetricSample &b) {
                  return a.path < b.path;
              });
    return out;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::vector<MetricSample> samples = snapshot();
    os << "{";
    bool first = true;
    for (const MetricSample &s : samples) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  ";
        writeJsonEscaped(os, s.path);
        os << ": ";
        if (std::isnan(s.value) || std::isinf(s.value))
            os << "null";
        else
            writeValue(os, s.value);
    }
    os << "\n}\n";
}

void
MetricsRegistry::writeProm(std::ostream &os) const
{
    std::vector<MetricSample> samples = snapshot();
    for (const MetricSample &s : samples) {
        std::string name = promName(s.path);
        if (s.isCounter)
            name += "_total";
        if (!s.help.empty()) {
            // HELP text: escape backslash and newline per the format.
            os << "# HELP " << name << " ";
            for (char c : s.help) {
                if (c == '\\')
                    os << "\\\\";
                else if (c == '\n')
                    os << "\\n";
                else
                    os << c;
            }
            os << "\n";
        }
        os << "# TYPE " << name
           << (s.isCounter ? " counter\n" : " gauge\n");
        os << name << " ";
        writeValue(os, s.value);
        os << "\n";
    }
}

} // namespace obs
} // namespace dramctrl
