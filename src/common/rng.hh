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
 *    default seed is 9981545732273789042).  next() returns its raw
 *    words.
 *  - uniform() is libstdc++'s generate_canonical<float, 24> over that
 *    engine: (float)r * 2^-64, clamped to nextafter(1, 0).
 *  - normal() is one step of libstdc++'s Marsaglia polar method with
 *    the spare variate discarded — exactly what a freshly constructed
 *    std::normal_distribution<float> returns — with its float/double
 *    promotions, std::log/std::sqrt on float and `* stddev + mean`
 *    order reproduced.
 *  - fork() draws the child seed's high word first, then the low word.
 *  - CounterStream's keepBits() and value() are pure functions of
 *    (key, stream id, element index) in 32- and 64-bit integer
 *    arithmetic; value() ends in one exact int -> float conversion and
 *    one float multiply.  Neither touches libm, keeps state or depends
 *    on the order elements are visited, so a counter-filled tensor is
 *    the same bits on every host, ISA, compiler and thread count.
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

    /** @return the engine's next raw 64-bit word. */
    uint64_t next() { return engine_(); }

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

/**
 * Counter-based random stream (Salmon et al., "Parallel Random
 * Numbers: As Easy as 1, 2, 3", SC'11): element i of stream (key, id)
 * is a keyed hash of i, so any element can be drawn on its own, in any
 * order, with no state carried between draws — a fill loop over it
 * vectorizes.  The hash is two rounds of Wellons' lowbias32 with a
 * round key mixed in before each: the first round (index key) is
 * shared, the second uses a keep key or a value key, so an element's
 * keep draw and its value are differently keyed hashes of its index.
 * The three 32-bit round keys come from SplitMix64 (Steele, Lea &
 * Flood, OOPSLA'14) over the 64-bit key and the stream id.  Indices
 * are 32-bit: a stream fills at most 2^32 elements.
 */
class CounterStream
{
  public:
    /** Wellons' lowbias32: a bijective 32-bit mixer with low
     * avalanche bias, two multiplies and three xorshifts. */
    static constexpr uint32_t
    mix(uint32_t x)
    {
        x ^= x >> 16;
        x *= 0x7feb352du;
        x ^= x >> 15;
        x *= 0x846ca68bu;
        x ^= x >> 16;
        return x;
    }

    /** @param key per-layer key (an Rng::next() word)
     *  @param id  which tensor of the layer this stream fills */
    constexpr CounterStream(uint64_t key, uint32_t id)
    {
        const uint64_t a = splitmix(key + ((uint64_t)id + 1) * kGamma);
        const uint64_t b = splitmix(a + kGamma);
        index_key_ = (uint32_t)a;
        keep_key_ = (uint32_t)(a >> 32);
        value_key_ = (uint32_t)b;
    }

    /** @return element @p i's keep draw, uniform on [0, 2^32). */
    constexpr uint32_t
    keepBits(uint32_t i) const
    {
        return mix(mix(i ^ index_key_) ^ keep_key_);
    }

    /**
     * @return element @p i's value: an Irwin-Hall sum of three
     * independent uniforms on (-1, 1) (variance 1, bounded by 3), times
     * @p stddev.  Each uniform is a 10-bit lane l of the value hash
     * mapped to the odd integer 2l + 1 - 2^10, so the lane sum is odd
     * and the value is never zero: a kept element is always a nonzero.
     * The sum (|s| < 2^12) converts to float exactly and
     * stddev * 2^-10 is exact, so the one rounding is the final
     * multiply.
     */
    constexpr float
    value(uint32_t i, float stddev) const
    {
        const uint32_t w = mix(mix(i ^ index_key_) ^ value_key_);
        const int32_t s =
            (int32_t)(2 * ((w & 0x3ff) + ((w >> 10) & 0x3ff) +
                           ((w >> 20) & 0x3ff))) +
            3 - 3 * 1024;
        return (float)s * (stddev * 0x1p-10f);
    }

  private:
    /** SplitMix64's Weyl increment (2^64 / golden ratio, odd). */
    static constexpr uint64_t kGamma = 0x9e3779b97f4a7c15ull;

    /** SplitMix64's output function. */
    static constexpr uint64_t
    splitmix(uint64_t z)
    {
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return z ^ (z >> 31);
    }

    uint32_t index_key_ = 0;
    uint32_t keep_key_ = 0;
    uint32_t value_key_ = 0;
};

} // namespace tensordash

#endif // TENSORDASH_COMMON_RNG_HH_
