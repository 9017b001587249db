/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries.
 *
 * Flags take the form --name=value or --name value; anything else is a
 * positional argument.  Unknown flags are fatal so typos do not
 * silently run the wrong experiment.  parseReal() and parseCount()
 * are the checked number readers behind every numeric flag and every
 * spec parser (fault models and event lists, churn schedules).
 */

#ifndef MMR_BASE_CLI_HH
#define MMR_BASE_CLI_HH

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace mmr
{

/**
 * Read all of @p text as a finite number in [@p lo, @p hi].  Anything
 * else is fatal, naming @p what: "<what> expects a number, got
 * '<text>'" for an empty string, trailing junk, nan or inf, and a
 * range message for a number outside the bounds.
 */
double parseReal(const std::string &text, const std::string &what,
                 double lo = std::numeric_limits<double>::lowest(),
                 double hi = std::numeric_limits<double>::max());

/**
 * Read all of @p text as a whole number in [0, @p hi] ("4000" or
 * "4e3"), for cycle counts and node ids.  Fractions, negative and
 * non-finite values and values above @p hi are fatal, naming @p what.
 */
std::uint64_t
parseCount(const std::string &text, const std::string &what,
           std::uint64_t hi = std::numeric_limits<std::uint64_t>::max());

class Cli
{
  public:
    /** Declare a flag with a default value and a help string. */
    void flag(const std::string &name, const std::string &def,
              const std::string &help);

    /**
     * Parse argv.  Handles --help by printing usage and returning
     * false (caller should exit 0).  Throws via mmr_fatal on unknown
     * flags or missing values.
     */
    bool parse(int argc, char **argv);

    std::string str(const std::string &name) const;
    std::int64_t integer(const std::string &name) const;

    /** A whole-number flag in [0, @p hi], read with parseCount: a
     * negative, fractional, non-finite or larger value is fatal,
     * naming the flag.  For cycle counts, sizes and other counts. */
    std::uint64_t count(const std::string &name, std::uint64_t hi) const;

    /** count() up to @p T's maximum, as a @p T. */
    template <typename T>
    T
    count(const std::string &name) const
    {
        return static_cast<T>(count(name, std::numeric_limits<T>::max()));
    }

    double real(const std::string &name) const;
    bool boolean(const std::string &name) const;

    /** Split a comma-separated flag value into parts. */
    std::vector<std::string> list(const std::string &name) const;

    /** A comma-separated flag value as numbers, each element checked
     * as real() checks one (parseReal: finite, no trailing junk); a
     * bad element is fatal, naming the flag and the element. */
    std::vector<double> reals(const std::string &name) const;

    const std::vector<std::string> &positional() const { return args; }

    void printUsage(const std::string &prog) const;

  private:
    struct Spec
    {
        std::string value;
        std::string help;
    };

    std::map<std::string, Spec> specs;
    std::vector<std::string> args;
};

} // namespace mmr

#endif // MMR_BASE_CLI_HH
