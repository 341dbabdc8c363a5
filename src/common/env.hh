#ifndef TENSORDASH_COMMON_ENV_HH_
#define TENSORDASH_COMMON_ENV_HH_

/**
 * @file
 * Validated environment-variable parsing.
 *
 * Every TD_* execution knob (TD_THREADS, TD_CACHE, ...) resolves
 * through these helpers instead of ad-hoc strtol calls scattered
 * across subsystems, so all knobs share one contract:
 *
 *  - unset          -> the caller's fallback, silently;
 *  - well-formed    -> the parsed value, range-checked;
 *  - garbage or out of range -> the fallback, with a LOUD warning
 *    naming the variable, the rejected text and the accepted range.
 *    A typo'd knob must never silently change behaviour — the warning
 *    is the difference between "my 32-thread run used 1 thread" being
 *    a mystery and being one grep away.
 *
 * Parsing is strict: the whole string must be consumed (no "4x"
 * accepted as 4), signs must fit the range, and overflow is rejected
 * rather than saturated.
 */

#include <string>

namespace tensordash {
namespace env {

/**
 * Integer knob in [@p min, @p max].  Returns @p fallback when @p name
 * is unset, or — with a warning — when the value is malformed or out
 * of range.
 */
long intKnob(const char *name, long min, long max, long fallback);

/**
 * String knob (e.g. TD_CACHE's directory).  Returns @p fallback when
 * unset; any set value — including empty — passes through verbatim
 * (there is no malformed string).
 */
std::string stringKnob(const char *name,
                       const std::string &fallback = "");

/** True when @p name is set (to anything, including empty). */
bool isSet(const char *name);

} // namespace env
} // namespace tensordash

#endif // TENSORDASH_COMMON_ENV_HH_
