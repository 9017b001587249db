#include "base/cli.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"

namespace mmr
{

double
parseReal(const std::string &text, const std::string &what, double lo,
          double hi)
{
    char *end = nullptr;
    const double x = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(x))
        mmr_fatal(what, " expects a number, got '", text, "'");
    if (x < lo || x > hi)
        mmr_fatal(what, " must be in [", lo, ", ", hi, "], got '", text,
                  "'");
    return x;
}

std::uint64_t
parseCount(const std::string &text, const std::string &what,
           std::uint64_t hi)
{
    // 2^64: every double below it converts to a uint64 exactly.
    constexpr double kLimit = 18446744073709551616.0;
    const double x = parseReal(text, what);
    if (x < 0 || x != std::floor(x) || x >= kLimit ||
        static_cast<std::uint64_t>(x) > hi)
        mmr_fatal(what, " expects a whole number in [0, ", hi,
                  "], got '", text, "'");
    return static_cast<std::uint64_t>(x);
}

void
Cli::flag(const std::string &name, const std::string &def,
          const std::string &help)
{
    specs[name] = Spec{def, help};
}

bool
Cli::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        if (a == "--help" || a == "-h") {
            printUsage(argv[0]);
            return false;
        }
        if (a.rfind("--", 0) != 0) {
            args.push_back(std::move(a));
            continue;
        }
        std::string name, value;
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
            name = a.substr(2, eq - 2);
            value = a.substr(eq + 1);
        } else {
            name = a.substr(2);
            if (i + 1 >= argc)
                mmr_fatal("flag --", name, " is missing a value");
            value = argv[++i];
        }
        auto it = specs.find(name);
        if (it == specs.end())
            mmr_fatal("unknown flag --", name, " (see --help)");
        it->second.value = std::move(value);
    }
    return true;
}

std::string
Cli::str(const std::string &name) const
{
    auto it = specs.find(name);
    mmr_assert(it != specs.end(), "flag --", name, " was never declared");
    return it->second.value;
}

std::int64_t
Cli::integer(const std::string &name) const
{
    const std::string v = str(name);
    char *end = nullptr;
    const long long x = std::strtoll(v.c_str(), &end, 10);
    if (end == v.c_str() || *end != '\0')
        mmr_fatal("flag --", name, " expects an integer, got '", v, "'");
    return x;
}

double
Cli::real(const std::string &name) const
{
    return parseReal(str(name), "flag --" + name);
}

bool
Cli::boolean(const std::string &name) const
{
    const std::string v = str(name);
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    mmr_fatal("flag --", name, " expects a boolean, got '", v, "'");
}

std::vector<std::string>
Cli::list(const std::string &name) const
{
    std::vector<std::string> parts;
    const std::string v = str(name);
    std::size_t start = 0;
    while (start <= v.size()) {
        const auto comma = v.find(',', start);
        if (comma == std::string::npos) {
            if (start < v.size())
                parts.push_back(v.substr(start));
            break;
        }
        if (comma > start)
            parts.push_back(v.substr(start, comma - start));
        start = comma + 1;
    }
    return parts;
}

std::vector<double>
Cli::reals(const std::string &name) const
{
    std::vector<double> xs;
    for (const std::string &part : list(name))
        xs.push_back(parseReal(part, "flag --" + name));
    return xs;
}

void
Cli::printUsage(const std::string &prog) const
{
    std::printf("usage: %s [flags]\n", prog.c_str());
    for (const auto &[name, spec] : specs) {
        std::printf("  --%-24s %s (default: %s)\n", name.c_str(),
                    spec.help.c_str(), spec.value.c_str());
    }
}

} // namespace mmr
