#include "common/env.hh"

#include <cerrno>
#include <cstdlib>

#include "common/logging.hh"

namespace tensordash {
namespace env {

namespace {

/** Strict whole-string strtol; false on junk, partial or overflow. */
bool
parseLong(const char *text, long *out)
{
    char *end = nullptr;
    errno = 0;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

/** Strict whole-string strtod; false on junk, partial or overflow. */
bool
parseDouble(const char *text, double *out)
{
    char *end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    *out = v;
    return true;
}

} // namespace

long
intKnob(const char *name, long min, long max, long fallback)
{
    const char *text = std::getenv(name);
    if (!text)
        return fallback;
    long v = 0;
    if (parseLong(text, &v) && v >= min && v <= max)
        return v;
    TD_WARN("ignoring invalid %s='%s' (want an integer in [%ld, %ld]); "
            "using %ld", name, text, min, max, fallback);
    return fallback;
}

double
doubleKnob(const char *name, double min, double max, double fallback)
{
    const char *text = std::getenv(name);
    if (!text)
        return fallback;
    double v = 0.0;
    if (parseDouble(text, &v) && v >= min && v <= max)
        return v;
    TD_WARN("ignoring invalid %s='%s' (want a number in [%g, %g]); "
            "using %g", name, text, min, max, fallback);
    return fallback;
}

std::string
stringKnob(const char *name, const std::string &fallback)
{
    const char *text = std::getenv(name);
    return text ? std::string(text) : fallback;
}

bool
isSet(const char *name)
{
    return std::getenv(name) != nullptr;
}

} // namespace env
} // namespace tensordash
