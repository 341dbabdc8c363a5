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
