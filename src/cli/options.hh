/**
 * @file
 * The command-line option layer shared by the tools.
 *
 * A tool describes its options once, as a table of typed rows (text,
 * integer, double, flag, csv, thread count), and the table both
 * parses argv and prints --help. Parsing is strict: an unknown
 * option, a missing operand, a non-numeric value, trailing characters
 * or a negative value for an unsigned option is a fatal() (exit 1)
 * naming the option and the value.
 *
 * --help layout: "  --flag OPERAND" padded to column 21 (or
 * followed by two spaces when longer), then the help text, whose
 * further lines are indented to column 21. Headings print as given.
 *
 *   cli::OptionTable table("[options]", {
 *       cli::integer("--seed", "N", seed, "RNG seed (default 1)"),
 *       cli::threads("--jobs", "M", jobs, "workers (0 = one per core)"),
 *   });
 *   if (!table.parse(argc, argv))
 *       return 0;   // --help was printed
 */

#ifndef DRAMCTRL_CLI_OPTIONS_H
#define DRAMCTRL_CLI_OPTIONS_H

#include <cstdint>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

namespace dramctrl {
namespace cli {

/** One row of an option table. */
struct Option
{
    /** "--jobs"; empty for a heading, whose text is @ref help. */
    std::string flag;
    /** Operand placeholder ("N", "PATH"); empty for a flag. */
    std::string operand;
    /** Help text; '\n' separates lines. */
    std::string help;
    /** Store the operand ("" for a flag); fatal() on a bad value. */
    std::function<void(const std::string &)> set;
    /**
     * When non-null the operand is optional: this value is used when
     * the next argument is missing or starts with '-'.
     */
    const char *implicit = nullptr;
};

/** A heading line between groups of options. */
Option heading(const std::string &text);

/** A text operand. */
Option text(const std::string &name, const std::string &operand,
            std::string &out, const std::string &help);

/** A boolean switch: present = true. */
Option flag(const std::string &name, bool &out, const std::string &help);

/** A double operand. */
Option real(const std::string &name, const std::string &operand,
            double &out, const std::string &help);

/** A comma-separated list operand (empty items dropped). */
Option csv(const std::string &name, const std::string &operand,
           std::vector<std::string> &out, const std::string &help);

/** A worker-thread count: 0 means one per core. */
Option threads(const std::string &name, const std::string &operand,
               unsigned &out, const std::string &help);

/** An operand handled by @p set (which validates it). */
Option custom(const std::string &name, const std::string &operand,
              const std::string &help,
              std::function<void(const std::string &)> set);

/**
 * @p value as an unsigned decimal integer no larger than @p max;
 * fatal() naming option @p name and @p value otherwise.
 */
std::uint64_t parseUInt(
    const std::string &name, const std::string &value,
    std::uint64_t max = std::numeric_limits<std::uint64_t>::max());

/** @p value as a double; fatal() naming @p name and @p value otherwise. */
double parseDouble(const std::string &name, const std::string &value);

/** An unsigned integer operand of type T. */
template <typename T>
Option
integer(const std::string &name, const std::string &operand, T &out,
        const std::string &help)
{
    return custom(name, operand, help, [name, &out](const std::string &v) {
        out = static_cast<T>(
            parseUInt(name, v, std::numeric_limits<T>::max()));
    });
}

/** A tool's options: parses argv and prints --help. */
class OptionTable
{
  public:
    /**
     * @param synopsis what follows the program name on the usage line,
     *                 e.g. "[options]".
     */
    OptionTable(std::string synopsis, std::vector<Option> options);

    /**
     * Apply argv[1..] to the table's targets, in order (a repeated
     * option is applied again, so plain values are last-wins).
     * fatal() on any error.
     * @return false when --help (or -h) was printed instead.
     */
    bool parse(int argc, char **argv);

    /** Whether option @p name appeared on the command line. */
    bool given(const std::string &name) const;

    /** The --help text for program @p prog. */
    std::string help(const std::string &prog) const;

  private:
    std::string synopsis_;
    std::vector<Option> options_;
    std::set<std::string> given_;
};

} // namespace cli
} // namespace dramctrl

#endif // DRAMCTRL_CLI_OPTIONS_H
