/**
 * @file
 * Unit tests for the common substrate: logging, RNG (including its
 * bit-exactness against std::mt19937_64 and libstdc++'s distributions),
 * stats, tables, thread pool.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "tensor/tensor.hh"

namespace tensordash {
namespace {

class ThrowingLog : public ::testing::Test
{
  protected:
    void SetUp() override { setLogThrowMode(true); }
    void TearDown() override { setLogThrowMode(false); }
};

TEST_F(ThrowingLog, FatalThrowsSimError)
{
    EXPECT_THROW(TD_FATAL("bad config value %d", 42), SimError);
}

TEST_F(ThrowingLog, PanicThrowsSimError)
{
    EXPECT_THROW(TD_PANIC("invariant violated"), SimError);
}

TEST_F(ThrowingLog, AssertPassesWhenTrue)
{
    EXPECT_NO_THROW(TD_ASSERT(1 + 1 == 2, "math works"));
}

TEST_F(ThrowingLog, AssertThrowsWhenFalse)
{
    EXPECT_THROW(TD_ASSERT(false, "always fails"), SimError);
}

TEST_F(ThrowingLog, ErrorMessageIsFormatted)
{
    try {
        TD_FATAL("value=%d name=%s", 7, "x");
        FAIL() << "should have thrown";
    } catch (const SimError &e) {
        EXPECT_EQ(e.message, "value=7 name=x");
    }
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.uniform() == b.uniform();
    EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        float v = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(v, -2.0f);
        EXPECT_LT(v, 3.0f);
    }
}

TEST(Rng, UniformIntInclusive)
{
    Rng rng(7);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int v = rng.uniformInt(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliMatchesProbability)
{
    Rng rng(99);
    int hits = 0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3f);
    EXPECT_NEAR(hits / (double)trials, 0.3, 0.02);
}

TEST(Rng, BetaStaysInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        float v = rng.beta(0.5f, 0.5f);
        EXPECT_GE(v, 0.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(Rng, ForkIndependent)
{
    Rng parent(42);
    Rng child = parent.fork();
    // The fork must not replay the parent sequence.
    Rng parent2(42);
    parent2.fork();
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += child.uniform() == parent.uniform();
    EXPECT_LT(same, 5);
}

TEST(Rng, EngineMatchesIsoConstant)
{
    // [rand.predef]: the 10000th consecutive invocation of a
    // default-constructed mt19937_64 produces 9981545732273789042.
    Mt19937_64 e(std::mt19937_64::default_seed);
    uint64_t v = 0;
    for (int i = 0; i < 10000; ++i)
        v = e();
    EXPECT_EQ(v, 9981545732273789042ull);
}

/** A bit generator replaying one word, to drive the standard library's
 * generate_canonical on chosen inputs. */
struct FixedWord
{
    using result_type = uint64_t;
    uint64_t word;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~(result_type)0; }
    result_type operator()() { return word; }
};

TEST(Rng, CanonicalMatchesStdOnRoundingEdges)
{
    // Random words almost never land on a float rounding tie (odds
    // ~2^-39 for the top-bit-set half), so the ties, their neighbours
    // and the clamp to nextafter(1, 0) are enumerated: at every
    // leading-bit position, the midpoints above an even and an odd
    // mantissa, one below and one above each.
    std::vector<uint64_t> words = {0, 1, 2, 3, ~0ull, ~0ull << 39,
                                   (~0ull << 39) - 1, 1ull << 63,
                                   (1ull << 63) - 1};
    for (int p = 24; p < 64; ++p) {
        const uint64_t lead = 1ull << p;
        const uint64_t half = 1ull << (p - 24);
        for (uint64_t base : {lead, lead + 2 * half})
            for (uint64_t w : {base + half - 1, base + half, base + half + 1})
                words.push_back(w);
    }
    std::mt19937_64 random(99);
    for (int i = 0; i < 1000; ++i)
        words.push_back(random());
    for (uint64_t w : words) {
        FixedWord g{w};
        EXPECT_EQ(std::bit_cast<uint32_t>(Rng::canonical(w)),
                  std::bit_cast<uint32_t>(
                      std::generate_canonical<float, 24>(g)))
            << "word " << w;
    }
}

TEST(Rng, EngineFootprintStaysNearStdEngine)
{
    EXPECT_LE(sizeof(Rng), sizeof(std::mt19937_64) * 6 / 5);
}

/**
 * Differential tests against std::mt19937_64 driven through libstdc++'s
 * distributions — the streams every committed result was synthesized
 * from.  Each test walks fills of 1, 311, 312, 313 and 10^5 elements
 * back to back on one stream, so polar pairs and fork seeds straddle
 * the engine's refill boundaries at shifting offsets, and after every
 * fill checks the next draw too: a fill that consumed one word more or
 * less than the reference fails there even when its own bytes match.
 */
class RngExactness : public ::testing::TestWithParam<uint64_t>
{
  protected:
    static constexpr size_t kFillLengths[] = {1, 311, 312, 313, 100000};

    /** The next draw of both streams, through the full-range int
     * distribution (the raw word's high half). */
    static void
    expectNextDrawAgrees(Rng &rng, std::mt19937_64 &ref)
    {
        std::uniform_int_distribution<int> d(
            std::numeric_limits<int>::min(),
            std::numeric_limits<int>::max());
        EXPECT_EQ(rng.uniformInt(std::numeric_limits<int>::min(),
                                 std::numeric_limits<int>::max()),
                  d(ref));
    }
};

TEST_P(RngExactness, EngineMatchesStdMt19937_64)
{
    Mt19937_64 e(GetParam());
    std::mt19937_64 ref(GetParam());
    for (size_t i = 0; i < 5 * Mt19937_64::kStateWords + 7; ++i)
        ASSERT_EQ(e(), ref()) << "draw " << i;
}

TEST_P(RngExactness, FillNormalMatchesFreshStdNormal)
{
    const std::pair<float, float> params[] = {
        {0.0f, 1.0f}, {0.0f, 0.5f}, {0.0f, 0.1f}, {1.5f, 2.0f}};
    for (auto [mean, stddev] : params) {
        Rng rng(GetParam());
        std::mt19937_64 ref(GetParam());
        for (size_t n : kFillLengths) {
            Tensor t(1, 1, 1, (int)n);
            t.fillNormal(rng, mean, stddev);
            std::vector<float> want(n);
            for (float &v : want) {
                std::normal_distribution<float> d(mean, stddev);
                v = d(ref);
            }
            EXPECT_EQ(std::memcmp(t.data(), want.data(),
                                  n * sizeof(float)), 0)
                << "N(" << mean << ", " << stddev << ") fill of " << n;
            EXPECT_EQ(rng.normal(mean, stddev),
                      std::normal_distribution<float>(mean, stddev)(ref));
            expectNextDrawAgrees(rng, ref);
        }
    }
}

TEST_P(RngExactness, UniformAndDropoutMatchStdUniformReal)
{
    Rng rng(GetParam());
    std::mt19937_64 ref(GetParam());
    std::uniform_real_distribution<float> uni(0.0f, 1.0f);
    for (size_t n : kFillLengths) {
        std::vector<float> got(n), want(n);
        for (size_t i = 0; i < n; ++i) {
            got[i] = rng.uniform();
            want[i] = uni(ref);
        }
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              n * sizeof(float)), 0)
            << "uniform run of " << n;

        Tensor t(1, 1, 1, (int)n);
        t.fill(1.0f);
        t.dropout(rng, 0.3f);
        for (float &v : want)
            v = uni(ref) < 0.3f ? 0.0f : 1.0f;
        EXPECT_EQ(std::memcmp(t.data(), want.data(),
                              n * sizeof(float)), 0)
            << "dropout of " << n;
        expectNextDrawAgrees(rng, ref);
    }
}

TEST_P(RngExactness, UniformIntMatchesStdUniformInt)
{
    const std::pair<int, int> ranges[] = {{-4, 4}, {0, 1}, {3, 1000003}};
    Rng rng(GetParam());
    std::mt19937_64 ref(GetParam());
    for (auto [lo, hi] : ranges) {
        std::uniform_int_distribution<int> d(lo, hi);
        for (size_t i = 0; i < 2000; ++i)
            ASSERT_EQ(rng.uniformInt(lo, hi), d(ref));
    }
    expectNextDrawAgrees(rng, ref);
}

TEST_P(RngExactness, BetaMatchesStdGammaPair)
{
    const std::pair<float, float> shapes[] = {
        {0.4f, 0.4f}, {2.0f, 5.0f}, {40.0f, 0.8f}};
    Rng rng(GetParam());
    std::mt19937_64 ref(GetParam());
    for (auto [a, b] : shapes) {
        for (size_t i = 0; i < 500; ++i) {
            std::gamma_distribution<double> ga((double)a, 1.0);
            std::gamma_distribution<double> gb((double)b, 1.0);
            double x = ga(ref);
            double y = gb(ref);
            float want = x + y <= 0.0 ? 0.5f : (float)(x / (x + y));
            ASSERT_EQ(rng.beta(a, b), want);
        }
    }
    expectNextDrawAgrees(rng, ref);
}

TEST_P(RngExactness, ForkDrawsHighWordThenLowWord)
{
    Rng rng(GetParam());
    std::mt19937_64 ref(GetParam());
    for (size_t n : kFillLengths) {
        // Move both streams to a new offset, then fork.
        Tensor t(1, 1, 1, (int)n);
        t.fillNormal(rng);
        for (size_t i = 0; i < n; ++i)
            std::normal_distribution<float>()(ref);
        Rng child = rng.fork();
        uint64_t hi = ref();
        uint64_t lo = ref();
        std::mt19937_64 child_ref((hi << 32) ^ lo);
        std::uniform_real_distribution<float> uni(0.0f, 1.0f);
        for (size_t i = 0; i < 400; ++i)
            ASSERT_EQ(child.uniform(), uni(child_ref)) << "after " << n;
        expectNextDrawAgrees(rng, ref);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngExactness,
                         ::testing::Values(0ull, 1ull, 7ull, 0x7d5ull,
                                           0xdeadbeefcafef00dull));

TEST(StatSet, CountersAccumulate)
{
    StatSet s;
    s.inc("cycles");
    s.inc("cycles", 9);
    EXPECT_EQ(s.count("cycles"), 10u);
    EXPECT_EQ(s.count("absent"), 0u);
}

TEST(StatSet, ScalarsAccumulateAndSet)
{
    StatSet s;
    s.add("energy", 1.5);
    s.add("energy", 2.5);
    EXPECT_DOUBLE_EQ(s.value("energy"), 4.0);
    s.set("energy", 7.0);
    EXPECT_DOUBLE_EQ(s.value("energy"), 7.0);
}

TEST(StatSet, MergeSums)
{
    StatSet a, b;
    a.inc("n", 3);
    a.add("x", 1.0);
    b.inc("n", 4);
    b.add("x", 2.0);
    b.inc("only_b", 5);
    a.merge(b);
    EXPECT_EQ(a.count("n"), 7u);
    EXPECT_DOUBLE_EQ(a.value("x"), 3.0);
    EXPECT_EQ(a.count("only_b"), 5u);
}

TEST(StatSet, HasAndClear)
{
    StatSet s;
    EXPECT_FALSE(s.has("n"));
    s.inc("n");
    EXPECT_TRUE(s.has("n"));
    s.clear();
    EXPECT_FALSE(s.has("n"));
}

TEST(Stats, GeomeanOfEqualValues)
{
    EXPECT_DOUBLE_EQ(geomean({2.0, 2.0, 2.0}), 2.0);
}

TEST(Stats, GeomeanKnownValue)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 8.0}), 4.0, 1e-12);
}

TEST(Table, AlignsColumns)
{
    Table t("caption");
    t.header({"model", "speedup"});
    t.row({"alexnet", "2.10"});
    t.row({"vgg", "1.80"});
    std::string s = t.str();
    EXPECT_NE(s.find("caption"), std::string::npos);
    EXPECT_NE(s.find("alexnet"), std::string::npos);
    EXPECT_NE(s.find("2.10"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, CsvRoundTrip)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    EXPECT_EQ(t.csv(), "a,b\n1,2\n");
}

TEST(Table, WriteCsvChecksOpenWriteAndClose)
{
    Table t;
    t.header({"a", "b"});
    t.row({"1", "2"});
    const std::string path = ::testing::TempDir() + "table_write.csv";
    ASSERT_TRUE(t.writeCsv(path));
    std::FILE *f = std::fopen(path.c_str(), "r");
    ASSERT_NE(f, nullptr);
    char buf[64] = {};
    size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    std::remove(path.c_str());
    EXPECT_EQ(std::string(buf, n), t.csv());
    // Unopenable path, and a device that accepts the open but fails
    // the flushed write: both must report failure, not a truncated
    // success.
    EXPECT_FALSE(t.writeCsv(::testing::TempDir() + "no/such/dir.csv"));
    if (std::FILE *full = std::fopen("/dev/full", "w")) {
        std::fclose(full);
        EXPECT_FALSE(t.writeCsv("/dev/full"));
    }
}

TEST(Table, NumericRowFormatting)
{
    Table t;
    t.header({"label", "x", "y"});
    t.rowNumeric("r", {1.234, 5.678}, 1);
    EXPECT_NE(t.str().find("1.2"), std::string::npos);
    EXPECT_NE(t.str().find("5.7"), std::string::npos);
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmtDouble(1.005, 2), "1.00");
    EXPECT_EQ(fmtSpeedup(1.95), "1.95x");
    EXPECT_EQ(fmtPercent(0.425, 1), "42.5%");
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.size(), 4);
    const size_t n = 1000;
    std::vector<int> hits(n, 0);
    pool.parallelFor(n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ParallelismOneRunsInlineInOrder)
{
    ThreadPool pool(4);
    std::vector<size_t> order;
    pool.parallelFor(16, [&](size_t i) { order.push_back(i); }, 1);
    ASSERT_EQ(order.size(), 16u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoWorkers)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    std::vector<size_t> order;
    pool.parallelFor(8, [&](size_t i) { order.push_back(i); });
    ASSERT_EQ(order.size(), 8u);
    for (size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ThreadPool, PropagatesTheFirstBodyException)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.parallelFor(64,
                                  [&](size_t i) {
                                      ++ran;
                                      if (i == 3)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
    EXPECT_GE(ran.load(), 1);
}

TEST(ThreadPool, NestedParallelForCoversEveryIndex)
{
    // A body that fans out again must not deadlock or drop indices:
    // the nested call publishes its own job (idle workers may help)
    // and the submitting thread drives its range to completion.
    ThreadPool pool(4);
    std::atomic<int> total{0};
    std::vector<std::array<std::atomic<int>, 8>> hits(8);
    pool.parallelFor(8, [&](size_t outer) {
        pool.parallelFor(8, [&](size_t inner) {
            ++hits[outer][inner];
            ++total;
        });
    });
    EXPECT_EQ(total.load(), 64);
    for (auto &row : hits)
        for (auto &h : row)
            EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, NestedParallelForOnSingleThreadPoolRunsInline)
{
    // The no-deadlock regression: a 1-thread pool has no helpers, so a
    // nested submit must degrade to the caller running its whole range
    // inline, in index order, without ever blocking on a worker.
    ThreadPool pool(1);
    std::vector<std::pair<size_t, size_t>> order;
    pool.parallelFor(3, [&](size_t outer) {
        pool.parallelFor(3, [&](size_t inner) {
            order.emplace_back(outer, inner);
        });
    });
    ASSERT_EQ(order.size(), 9u);
    for (size_t i = 0; i < order.size(); ++i) {
        EXPECT_EQ(order[i].first, i / 3);
        EXPECT_EQ(order[i].second, i % 3);
    }
}

TEST(ThreadPool, NestedParallelForPropagatesExceptions)
{
    ThreadPool pool(4);
    std::atomic<int> outer_failures{0};
    pool.parallelFor(4, [&](size_t) {
        try {
            pool.parallelFor(8, [&](size_t i) {
                if (i == 5)
                    throw std::runtime_error("inner boom");
            });
        } catch (const std::runtime_error &) {
            ++outer_failures;
        }
    });
    EXPECT_EQ(outer_failures.load(), 4);
}

TEST(ThreadPool, ConcurrentTopLevelParallelForCalls)
{
    // Independent jobs published from different threads coexist on one
    // pool; each call sees exactly its own range.
    ThreadPool pool(4);
    std::array<std::atomic<int>, 2> totals{};
    std::thread other([&] {
        pool.parallelFor(100, [&](size_t) { ++totals[0]; });
    });
    pool.parallelFor(100, [&](size_t) { ++totals[1]; });
    other.join();
    EXPECT_EQ(totals[0].load(), 100);
    EXPECT_EQ(totals[1].load(), 100);
}

TEST(ThreadPool, GrowsToHonourExplicitParallelism)
{
    // An explicit parallelism above the pool's size must win over the
    // size the pool started with (RunConfig::threads beats TD_THREADS).
    ThreadPool pool(1);
    EXPECT_EQ(pool.size(), 1);
    std::vector<int> hits(64, 0);
    pool.parallelFor(hits.size(), [&](size_t i) { ++hits[i]; }, 4);
    EXPECT_EQ(pool.size(), 4);
    for (size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << i;
}

TEST(ThreadPool, ReusableAcrossJobs)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::vector<uint64_t> out(100, 0);
        pool.parallelFor(out.size(), [&](size_t i) {
            out[i] = (uint64_t)i * (uint64_t)(round + 1);
        });
        uint64_t sum = std::accumulate(out.begin(), out.end(),
                                       (uint64_t)0);
        EXPECT_EQ(sum, (uint64_t)4950 * (uint64_t)(round + 1));
    }
}

TEST(ThreadPool, DefaultThreadCountHonoursTdThreadsEnv)
{
    char saved[64] = {0};
    if (const char *old = std::getenv("TD_THREADS"))
        std::snprintf(saved, sizeof saved, "%s", old);

    setenv("TD_THREADS", "3", 1);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), 3);
    // Invalid values fall back to hardware concurrency (>= 1).
    setenv("TD_THREADS", "zero", 1);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);
    setenv("TD_THREADS", "-2", 1);
    EXPECT_GE(ThreadPool::defaultThreadCount(), 1);

    if (saved[0])
        setenv("TD_THREADS", saved, 1);
    else
        unsetenv("TD_THREADS");
}

} // namespace
} // namespace tensordash
