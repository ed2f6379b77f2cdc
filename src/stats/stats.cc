#include "stats/stats.hh"

#include <cmath>
#include <iomanip>
#include <limits>

#include "ckpt/ckpt.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace stats {

namespace {

/** One aligned "path value # desc" line. */
void
printLine(std::ostream &os, const std::string &path, double value,
          const std::string &desc)
{
    os << std::left << std::setw(44) << path << ' ' << std::right
       << std::setw(14) << std::setprecision(6) << value;
    if (!desc.empty())
        os << "  # " << desc;
    os << '\n';
}

} // namespace

Stat::Stat(Group *parent, std::string name, std::string desc)
    : name_(std::move(name)), desc_(std::move(desc))
{
    if (!parent)
        panic("stat '%s' created without a parent group", name_.c_str());
    parent->addStat(this);
}

double
Stat::sampleValue() const
{
    return std::numeric_limits<double>::quiet_NaN();
}

void
Stat::checkpoint(ckpt::Io &io, const std::string &key)
{
    (void)io;
    (void)key;
}

void
Scalar::checkpoint(ckpt::Io &io, const std::string &key)
{
    io.f64(key, value_);
}

void
Average::checkpoint(ckpt::Io &io, const std::string &key)
{
    io.f64(key + ".sum", sum_);
    io.u64(key + ".count", count_);
}

void
Vector::checkpoint(ckpt::Io &io, const std::string &key)
{
    io.lanes(key, values_);
}

namespace {

/** Emit a double as JSON (finite; NaN/inf become null). */
void
jsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << std::setprecision(12) << v;
    else
        os << "null";
}

/** Emit a JSON string with minimal escaping. */
void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

} // namespace

void
Scalar::dump(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix + name(), value_, desc());
}

void
Scalar::dumpJson(std::ostream &os) const
{
    jsonNumber(os, value_);
}

void
Average::dump(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix + name(), value(), desc());
    printLine(os, prefix + name() + "::samples",
              static_cast<double>(count_), "");
}

void
Average::dumpJson(std::ostream &os) const
{
    os << "{\"mean\": ";
    jsonNumber(os, value());
    os << ", \"samples\": " << count_ << "}";
}

double
Vector::total() const
{
    double t = 0;
    for (double v : values_)
        t += v;
    return t;
}

void
Vector::dump(std::ostream &os, const std::string &prefix) const
{
    for (std::size_t i = 0; i < values_.size(); ++i) {
        printLine(os, prefix + name() + "::" + std::to_string(i),
                  values_[i], i == 0 ? desc() : "");
    }
    printLine(os, prefix + name() + "::total", total(), "");
}

void
Vector::dumpJson(std::ostream &os) const
{
    os << '[';
    for (std::size_t i = 0; i < values_.size(); ++i) {
        if (i > 0)
            os << ", ";
        jsonNumber(os, values_[i]);
    }
    os << ']';
}

void
Vector::reset()
{
    for (double &v : values_)
        v = 0;
}

void
Formula::dump(std::ostream &os, const std::string &prefix) const
{
    printLine(os, prefix + name(), fn_(), desc());
}

void
Formula::dumpJson(std::ostream &os) const
{
    jsonNumber(os, fn_());
}

Group::Group(std::string name, Group *parent)
    : name_(std::move(name)), parent_(parent)
{
    if (parent_)
        parent_->addChild(this);
}

std::string
Group::fullPath() const
{
    if (!parent_)
        return name_;
    std::string p = parent_->fullPath();
    return p.empty() ? name_ : p + "." + name_;
}

void
Group::addStat(Stat *stat)
{
    for (const Stat *s : stats_) {
        if (s->name() == stat->name())
            panic("duplicate stat '%s' in group '%s'",
                  stat->name().c_str(), name_.c_str());
    }
    stats_.push_back(stat);
}

void
Group::addChild(Group *child)
{
    children_.push_back(child);
}

void
Group::dump(std::ostream &os) const
{
    fireDumpCallbacks();
    dumpStats(os);
}

void
Group::dumpStats(std::ostream &os) const
{
    std::string prefix = fullPath();
    if (!prefix.empty())
        prefix += ".";
    for (const Stat *s : stats_)
        s->dump(os, prefix);
    for (const Group *g : children_)
        g->dumpStats(os);
}

void
Group::onReset(std::function<void()> fn)
{
    resetCallbacks_.push_back(std::move(fn));
}

void
Group::onDump(std::function<void()> fn)
{
    dumpCallbacks_.push_back(std::move(fn));
}

void
Group::fireDumpCallbacks() const
{
    for (const auto &fn : dumpCallbacks_)
        fn();
    for (const Group *g : children_)
        g->fireDumpCallbacks();
}

void
Group::resetAll()
{
    for (Stat *s : stats_)
        s->reset();
    for (auto &fn : resetCallbacks_)
        fn();
    for (Group *g : children_)
        g->resetAll();
}

void
Group::dumpJson(std::ostream &os) const
{
    fireDumpCallbacks();
    dumpJsonStats(os);
}

void
Group::dumpJsonStats(std::ostream &os) const
{
    os << '{';
    bool first = true;
    for (const Stat *s : stats_) {
        if (!first)
            os << ", ";
        first = false;
        jsonString(os, s->name());
        os << ": ";
        s->dumpJson(os);
    }
    for (const Group *g : children_) {
        if (!first)
            os << ", ";
        first = false;
        jsonString(os, g->name());
        os << ": ";
        g->dumpJsonStats(os);
    }
    os << '}';
}

const Stat *
Group::find(const std::string &name) const
{
    for (const Stat *s : stats_) {
        if (s->name() == name)
            return s;
    }
    return nullptr;
}

const Group *
Group::findChild(const std::string &name) const
{
    for (const Group *g : children_) {
        if (g->name() == name)
            return g;
    }
    return nullptr;
}

const Stat *
Group::resolve(const std::string &path) const
{
    const Group *g = this;
    std::size_t pos = 0;
    for (;;) {
        std::size_t dot = path.find('.', pos);
        if (dot == std::string::npos)
            return g->find(path.substr(pos));
        g = g->findChild(path.substr(pos, dot - pos));
        if (g == nullptr)
            return nullptr;
        pos = dot + 1;
    }
}

} // namespace stats
} // namespace dramctrl
