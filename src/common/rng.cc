#include "common/rng.hh"

namespace tensordash {

namespace {

// mt19937_64 parameters, ISO C++ [rand.predef].
constexpr size_t kShift = 156; // m
constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ull;
constexpr uint64_t kUpper = ~0ull << 31;
constexpr uint64_t kLower = ~kUpper;
constexpr uint64_t kInitMult = 6364136223846793005ull;

inline uint64_t
twist(uint64_t far, uint64_t cur, uint64_t next)
{
    uint64_t y = (cur & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((0 - (y & 1)) & kMatrix);
}

inline uint64_t
temper(uint64_t z)
{
    z ^= (z >> 29) & 0x5555555555555555ull;
    z ^= (z << 17) & 0x71d67fffeda60000ull;
    z ^= (z << 37) & 0xfff7eee000000000ull;
    z ^= z >> 43;
    return z;
}

static_assert(kShift % Mt19937_64::kBlockWords == 0);

} // namespace

Mt19937_64::Mt19937_64(uint64_t seed)
{
    state_[0] = seed;
    for (size_t i = 1; i < kStateWords; ++i)
        state_[i] = kInitMult * (state_[i - 1] ^ (state_[i - 1] >> 62)) +
                    i;
}

void
Mt19937_64::refill()
{
    // The twist rewrites word i from words i, i + 1 and i + m of the
    // running state, in place and in index order: below n - m the far
    // word is still last generation's, from there on it is the one
    // this generation already rewrote at i + m - n.  A block never
    // straddles n - m, so one far offset serves all of it.
    uint64_t *cur = state_ + twist_;
    const uint64_t *far = state_ + (twist_ + kShift) % kStateWords;
    // The last word's successor wraps to word 0 (already rewritten).
    const bool wraps = twist_ + kBlockWords == kStateWords;
    const size_t body = kBlockWords - wraps;
    for (size_t j = 0; j < body; ++j)
        cur[j] = twist(far[j], cur[j], cur[j + 1]);
    if (wraps)
        cur[body] = twist(far[body], cur[body], state_[0]);
    for (size_t j = 0; j < kBlockWords; ++j)
        block_[j] = temper(cur[j]);
    twist_ = (uint32_t)((twist_ + kBlockWords) % kStateWords);
    pos_ = 0;
}

void
Rng::fillNormal(float *out, size_t n, float mean, float stddev)
{
    // Two passes per chunk.  The first walks the polar loop without a
    // data-dependent branch: every candidate is written at the next
    // free slot, which advances only when it is accepted.  The second
    // scales the accepted candidates, independent per element.
    constexpr size_t kChunk = 256;
    float r2s[kChunk] = {};
    for (size_t base = 0; base < n; base += kChunk) {
        const size_t m = std::min(kChunk, n - base);
        float *ys = out + base;
        for (size_t k = 0; k < m;)
            k += polarCandidate(ys[k], r2s[k]);
        for (size_t k = 0; k < m; ++k)
            ys[k] = polarValue(ys[k], r2s[k], mean, stddev);
    }
}

} // namespace tensordash
