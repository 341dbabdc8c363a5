#ifndef TENSORDASH_COMMON_RNG_HH_
#define TENSORDASH_COMMON_RNG_HH_

/**
 * @file
 * Deterministic random number generation.
 *
 * Every stochastic component in the simulator takes an explicit Rng so
 * experiments are reproducible from a single seed.
 *
 * Exactness contract.  Results are content-addressed on the synthesized
 * tensors, so the streams are pinned bit for bit, not just in
 * distribution:
 *
 *  - Mt19937_64 emits the ISO C++ [rand.predef] mt19937_64 sequence
 *    (same seeding, twist and tempering; the 10000th output of the
 *    default seed is 9981545732273789042).
 *  - uniform() is libstdc++'s generate_canonical<float, 24> over that
 *    engine: (float)r * 2^-64, clamped to nextafter(1, 0).
 *  - normal() is one step of libstdc++'s Marsaglia polar method with
 *    the spare variate discarded — exactly what a freshly constructed
 *    std::normal_distribution<float> returns — with its float/double
 *    promotions, std::log/std::sqrt on float and `* stddev + mean`
 *    order reproduced.
 *  - fork() draws the child seed's high word first, then the low word.
 *
 * Uniform and normal draws therefore no longer depend on the host C++
 * standard library (normal() still calls the C library's logf and
 * sqrtf, as libstdc++ does).  uniformInt() and beta() still run the
 * standard library's uniform_int_distribution and gamma_distribution
 * on the engine, so those two inherit its implementation.
 */

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

namespace tensordash {

/**
 * Block-buffered mt19937_64.  Rather than tempering one word per call,
 * refill() twists the next kBlockWords state words in place and
 * tempers them into an output block in one vectorizable pass, so
 * operator() is an indexed load.  Twisting a block at a time instead
 * of the whole 312-word state keeps the footprint (~2.9 KB) close to
 * std::mt19937_64's — the sweep runner holds one Rng per (variant,
 * model, layer).  Models UniformRandomBitGenerator, so standard
 * distributions run on it unchanged.
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    /** Words of Mersenne Twister state (n). */
    static constexpr size_t kStateWords = 312;

    /** Words twisted and tempered per refill; divides n - m = 156, so
     * no block straddles the point where the twist starts reading
     * words of the current generation. */
    static constexpr size_t kBlockWords = 52;

    /** Seeds exactly like std::mt19937_64(seed). */
    explicit Mt19937_64(uint64_t seed);

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~(result_type)0; }

    result_type
    operator()()
    {
        if (pos_ == kBlockWords) [[unlikely]]
            refill();
        return block_[pos_++];
    }

  private:
    void refill();

    uint64_t state_[kStateWords];
    uint64_t block_[kBlockWords] = {};
    uint32_t pos_ = kBlockWords; ///< next unread block word
    uint32_t twist_ = 0;         ///< first state word of the next refill
};

/** Deterministic random streams over Mt19937_64 (see the file comment
 * for the exactness contract). */
class Rng
{
  public:
    /** @param seed deterministic seed for the underlying engine. */
    explicit Rng(uint64_t seed = 0x7d5ull) : engine_(seed) {}

    /** @return uniform float in [0, 1). */
    float uniform() { return canonical(engine_()); }

    /** @return uniform float in [lo, hi). */
    float
    uniform(float lo, float hi)
    {
        return lo + (hi - lo) * uniform();
    }

    /** @return uniform integer in [lo, hi] inclusive. */
    int
    uniformInt(int lo, int hi)
    {
        std::uniform_int_distribution<int> d(lo, hi);
        return d(engine_);
    }

    /** @return sample from N(mean, stddev^2). */
    float
    normal(float mean = 0.0f, float stddev = 1.0f)
    {
        float y = 0.0f, r2 = 0.0f;
        while (!polarCandidate(y, r2)) {
        }
        return polarValue(y, r2, mean, stddev);
    }

    /**
     * Fill @p out[0, n) with N(mean, stddev^2) samples: element for
     * element what n normal() calls return, consuming the same draws.
     */
    void fillNormal(float *out, size_t n, float mean, float stddev);

    /** @return true with probability p. */
    bool bernoulli(float p) { return uniform() < p; }

    /**
     * Beta(a, b) sample via two gamma draws.  Used to model clustered
     * per-channel density distributions.  Double-precision gammas keep
     * the mean accurate for the very small shape parameters strongly
     * clustered profiles use.
     */
    float
    beta(float a, float b)
    {
        std::gamma_distribution<double> ga((double)a, 1.0);
        std::gamma_distribution<double> gb((double)b, 1.0);
        double x = ga(engine_);
        double y = gb(engine_);
        if (x + y <= 0.0)
            return 0.5f;
        return (float)(x / (x + y));
    }

    /** Split off an independently seeded child stream. */
    Rng
    fork()
    {
        // Two statements: the operands of one `<<`/`^` expression are
        // unsequenced, and the per-layer streams depend on this order.
        uint64_t hi = engine_();
        uint64_t lo = engine_();
        return Rng((hi << 32) ^ lo);
    }

    /**
     * uniform()'s map of one raw word: generate_canonical<float, 24>,
     * i.e. (float)r * 2^-64 clamped below 1.  The uint64 -> float
     * conversion is the one the compiler emits (when the top bit is
     * set: halve keeping a sticky bit, convert as signed, double),
     * minus its branch — the top bit is a coin flip the branch
     * predictor loses half the time.  Shifting by the top bit and
     * scaling by 2^(top - 64) is the same arithmetic with the choice
     * made in integer registers; both scalings are exact.
     */
    static float
    canonical(uint64_t r)
    {
        const uint64_t top = r >> 63;
        const float f = (float)(int64_t)((r >> top) | (r & top));
        const float scale =
            std::bit_cast<float>((uint32_t)(127 - 64 + top) << 23);
        return std::min(f * scale, 0x1.fffffep-1f);
    }

  private:
    /**
     * One candidate of libstdc++'s Marsaglia polar loop: the pair
     * (x, y) and r2 = x^2 + y^2, accepted when r2 is in (0, 1].  Only
     * y is kept — a fresh normal_distribution<float> per draw discards
     * the spare x * mult.
     */
    bool
    polarCandidate(float &y, float &r2)
    {
        // libstdc++ computes `2.0f * u - 1.0`: the subtraction is in
        // double, then narrowed.
        float x = (float)((double)(2.0f * uniform()) - 1.0);
        y = (float)((double)(2.0f * uniform()) - 1.0);
        r2 = x * x + y * y;
        return (r2 <= 1.0f) & (r2 != 0.0f);
    }

    /** An accepted candidate scaled to N(mean, stddev^2), in
     * libstdc++'s float operation order. */
    static float
    polarValue(float y, float r2, float mean, float stddev)
    {
        return y * std::sqrt(-2.0f * std::log(r2) / r2) * stddev + mean;
    }

    Mt19937_64 engine_;
};

} // namespace tensordash

#endif // TENSORDASH_COMMON_RNG_HH_
