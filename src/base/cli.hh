/**
 * @file
 * Minimal command-line flag parser for the bench and example binaries.
 *
 * Flags take the form --name=value or --name value; anything else is a
 * positional argument.  Unknown flags are fatal so typos do not
 * silently run the wrong experiment.
 */

#ifndef MMR_BASE_CLI_HH
#define MMR_BASE_CLI_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mmr
{

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
    double real(const std::string &name) const;
    bool boolean(const std::string &name) const;

    /** Split a comma-separated flag value into parts. */
    std::vector<std::string> list(const std::string &name) const;

    /** A comma-separated flag value as numbers, each element checked
     * as real() checks one; a bad element is fatal, naming the flag
     * and the element. */
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
