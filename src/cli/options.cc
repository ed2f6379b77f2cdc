#include "cli/options.hh"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "exec/thread_pool.hh"
#include "sim/logging.hh"

namespace dramctrl {
namespace cli {

namespace {

/** Help text column: where the first help line starts. */
constexpr std::size_t kHelpColumn = 21;

} // namespace

std::uint64_t
parseUInt(const std::string &name, const std::string &value,
          std::uint64_t max)
{
    std::uint64_t v = 0;
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (value.empty() || ec != std::errc() || ptr != end || v > max)
        fatal("%s: '%s' is not an unsigned integer (0 to %llu)",
              name.c_str(), value.c_str(),
              static_cast<unsigned long long>(max));
    return v;
}

double
parseDouble(const std::string &name, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(value.c_str(), &end);
    if (value.empty() || std::isspace(static_cast<unsigned char>(
                             value.front())) ||
        end != value.c_str() + value.size() || errno == ERANGE)
        fatal("%s: '%s' is not a number", name.c_str(), value.c_str());
    return v;
}

Option
heading(const std::string &text)
{
    return Option{"", "", text, nullptr};
}

Option
custom(const std::string &name, const std::string &operand,
       const std::string &help,
       std::function<void(const std::string &)> set)
{
    return Option{name, operand, help, std::move(set)};
}

Option
text(const std::string &name, const std::string &operand,
     std::string &out, const std::string &help)
{
    return custom(name, operand, help,
                  [&out](const std::string &v) { out = v; });
}

Option
flag(const std::string &name, bool &out, const std::string &help)
{
    return custom(name, "", help,
                  [&out](const std::string &) { out = true; });
}

Option
real(const std::string &name, const std::string &operand, double &out,
     const std::string &help)
{
    return custom(name, operand, help, [name, &out](const std::string &v) {
        out = parseDouble(name, v);
    });
}

Option
csv(const std::string &name, const std::string &operand,
    std::vector<std::string> &out, const std::string &help)
{
    return custom(name, operand, help,
                  [&out](const std::string &v) { out = splitCsv(v); });
}

Option
threads(const std::string &name, const std::string &operand,
        unsigned &out, const std::string &help)
{
    return custom(name, operand, help, [name, &out](const std::string &v) {
        out = static_cast<unsigned>(parseUInt(name, v, ~0u));
        if (out == 0)
            out = exec::ThreadPool::hardwareThreads();
    });
}

OptionTable::OptionTable(std::string synopsis, std::vector<Option> options)
    : synopsis_(std::move(synopsis)), options_(std::move(options))
{
}

bool
OptionTable::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            std::fputs(help(argv[0]).c_str(), stdout);
            return false;
        }
        const Option *opt = nullptr;
        for (const Option &o : options_)
            if (!o.flag.empty() && o.flag == a)
                opt = &o;
        if (opt == nullptr)
            fatal("unknown option '%s' (try --help)", a.c_str());
        given_.insert(a);
        if (opt->operand.empty()) {
            opt->set("");
        } else if (opt->implicit != nullptr &&
                   (i + 1 >= argc || argv[i + 1][0] == '-')) {
            opt->set(opt->implicit);
        } else {
            if (i + 1 >= argc)
                fatal("missing value for %s", a.c_str());
            opt->set(argv[++i]);
        }
    }
    return true;
}

bool
OptionTable::given(const std::string &name) const
{
    return given_.count(name) != 0;
}

std::string
OptionTable::help(const std::string &prog) const
{
    std::string out = "usage: " + prog + " " + synopsis_ + "\n";
    const std::string indent(kHelpColumn, ' ');
    for (const Option &o : options_) {
        if (o.flag.empty()) {
            out += o.help + "\n";
            continue;
        }
        std::string line = "  " + o.flag;
        if (!o.operand.empty())
            line += " " + o.operand;
        line += line.size() < kHelpColumn
                    ? std::string(kHelpColumn - line.size(), ' ')
                    : "  ";
        std::size_t pos = 0;
        for (;;) {
            std::size_t nl = o.help.find('\n', pos);
            out += line + o.help.substr(pos, nl - pos) + "\n";
            if (nl == std::string::npos)
                break;
            pos = nl + 1;
            line = indent;
        }
    }
    return out;
}

} // namespace cli
} // namespace dramctrl
