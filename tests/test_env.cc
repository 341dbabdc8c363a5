/**
 * @file
 * Tests for the consolidated environment-knob parser: every TD_*
 * runtime knob resolves through env::intKnob/stringKnob, so this
 * suite pins the shared contract once — unset falls back silently, a
 * valid value in range wins, and garbage or out-of-range input falls
 * back loudly instead of being half-parsed.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/env.hh"

namespace tensordash {
namespace {

/** Scoped setenv: every test leaves the environment as it found it. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : name_(name)
    {
        if (value)
            ::setenv(name, value, 1);
        else
            ::unsetenv(name);
    }
    ~ScopedEnv() { ::unsetenv(name_); }

  private:
    const char *name_;
};

constexpr const char *kVar = "TD_TEST_KNOB";

TEST(EnvInt, UnsetFallsBack)
{
    ScopedEnv e(kVar, nullptr);
    EXPECT_EQ(env::intKnob(kVar, 1, 100, 7), 7);
}

TEST(EnvInt, ValidValueWins)
{
    ScopedEnv e(kVar, "42");
    EXPECT_EQ(env::intKnob(kVar, 1, 100, 7), 42);
}

TEST(EnvInt, BoundsAreInclusive)
{
    {
        ScopedEnv e(kVar, "1");
        EXPECT_EQ(env::intKnob(kVar, 1, 100, 7), 1);
    }
    {
        ScopedEnv e(kVar, "100");
        EXPECT_EQ(env::intKnob(kVar, 1, 100, 7), 100);
    }
}

TEST(EnvInt, OutOfRangeFallsBack)
{
    {
        ScopedEnv e(kVar, "0");
        EXPECT_EQ(env::intKnob(kVar, 1, 100, 7), 7);
    }
    {
        ScopedEnv e(kVar, "101");
        EXPECT_EQ(env::intKnob(kVar, 1, 100, 7), 7);
    }
}

TEST(EnvInt, GarbageFallsBack)
{
    const char *garbage[] = {"", " ", "abc", "12abc", "abc12", "1.5",
                             "0x10", "3 ", "+", "-",
                             "99999999999999999999999999"};
    for (const char *v : garbage) {
        ScopedEnv e(kVar, v);
        EXPECT_EQ(env::intKnob(kVar, 1, 100, 7), 7)
            << "value '" << v << "' should fall back";
    }
}

TEST(EnvInt, NegativeAllowedWhenInRange)
{
    ScopedEnv e(kVar, "-5");
    EXPECT_EQ(env::intKnob(kVar, -10, 10, 0), -5);
}

TEST(EnvString, UnsetAndSet)
{
    {
        ScopedEnv e(kVar, nullptr);
        EXPECT_EQ(env::stringKnob(kVar, "dflt"), "dflt");
        EXPECT_FALSE(env::isSet(kVar));
    }
    {
        ScopedEnv e(kVar, "hello");
        EXPECT_EQ(env::stringKnob(kVar, "dflt"), "hello");
        EXPECT_TRUE(env::isSet(kVar));
    }
    {
        // An empty string counts as set: TD_CACHE="" explicitly
        // selects the memory-only store.
        ScopedEnv e(kVar, "");
        EXPECT_EQ(env::stringKnob(kVar, "dflt"), "");
        EXPECT_TRUE(env::isSet(kVar));
    }
}

} // namespace
} // namespace tensordash
