#include "sparsity/generator.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tensordash {

void
applyBernoulliSparsity(Tensor &tensor, double sparsity, Rng &rng)
{
    TD_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
              "sparsity %f out of range", sparsity);
    tensor.dropout(rng, (float)sparsity);
}

double
mapConcentration(double strength)
{
    return std::max(80.0 * std::pow(0.01, strength), 0.8);
}

double
filterConcentration(double strength)
{
    return std::max(60.0 * std::pow(0.02, strength), 0.8);
}

namespace {

// The map kernel is 32-bit integer arithmetic plus one exact
// conversion and one float multiply per element, so every ISA clone
// computes the same bits; the loader picks the widest the host runs.
// The clones dispatch through an ifunc resolver, which runs before a
// sanitizer runtime is up, so sanitized builds keep the baseline ISA.
#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define TD_ISA_CLONES \
    __attribute__((target_clones("default", "avx2", "avx512f")))
#else
#define TD_ISA_CLONES
#endif

/** The map threshold that keeps every element: keepBits(i) < 2^32. */
constexpr uint64_t kKeepAll = 1ull << 32;

/**
 * The hot loop of mask-first synthesis: element i of [begin, end) is
 * kept iff stream.keepBits(i) < threshold (a threshold on [0, 2^32]).
 * A kept element holds stream.value(i, stddev) when @p fill, else its
 * own value; every other element becomes +0.
 */
TD_ISA_CLONES void
maskRange(float *p, size_t begin, size_t end, const CounterStream &stream,
          uint64_t threshold, float stddev, bool fill)
{
    const CounterStream s = stream;
    const bool all = threshold >= kKeepAll;
    const auto below = (uint32_t)std::min(threshold, kKeepAll - 1);
    // Two loops rather than a select on `fill`: a branch in the body
    // keeps the loop from vectorizing.
    if (fill) {
        for (size_t i = begin; i < end; ++i)
            p[i] = zeroUnless((s.keepBits((uint32_t)i) < below) | all,
                              s.value((uint32_t)i, stddev));
    } else {
        for (size_t i = begin; i < end; ++i)
            p[i] = zeroUnless((s.keepBits((uint32_t)i) < below) | all,
                              p[i]);
    }
}

void
checkStreamExtent(const Tensor &tensor)
{
    TD_ASSERT(tensor.size() <= kKeepAll,
              "%zu elements exceed a counter stream", tensor.size());
}

void
clusteredPass(Tensor &tensor, const ClusterParams &params,
              const CounterStream &stream, float stddev, bool fill,
              Rng &rng)
{
    TD_ASSERT(params.sparsity >= 0.0 && params.sparsity <= 1.0,
              "sparsity %f out of range", params.sparsity);
    TD_ASSERT(params.strength >= 0.0 && params.strength <= 1.0,
              "strength %f out of range", params.strength);
    checkStreamExtent(tensor);

    // One Beta density per map, drawn in map order; keepBits is
    // uniform on [0, 2^32), so it falls below d * 2^32 with
    // probability d (d = 1 keeps everything).  A one-element map (FC
    // and recurrent layers) keeps its element with probability
    // E[d] = density whatever d is drawn, and a density of 0 or 1 has
    // no Beta spread, so those tensors skip the Beta draws and run as
    // one map at the mean density: the same distribution.
    const double density = 1.0 - params.sparsity;
    const Shape &s = tensor.shape();
    const size_t per_map = (size_t)s.h * s.w;
    if (per_map == 1 || density <= 0.0 || density >= 1.0) {
        maskRange(tensor.data(), 0, tensor.size(), stream,
                  (uint64_t)(density * 0x1p32), stddev, fill);
        return;
    }
    double k = mapConcentration(params.strength);
    for (size_t m = 0; m < (size_t)s.n * s.c; ++m) {
        float map_density = rng.beta((float)(density * k),
                                     (float)((1.0 - density) * k));
        maskRange(tensor.data(), m * per_map, (m + 1) * per_map, stream,
                  (uint64_t)((double)map_density * 0x1p32), stddev,
                  fill);
    }
}

void
prunePass(Tensor &weights, double sparsity, double strength,
          const CounterStream &stream, float stddev, bool fill,
          Rng &rng)
{
    TD_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
              "sparsity %f out of range", sparsity);
    checkStreamExtent(weights);
    const Shape &s = weights.shape();
    double keep_mean = 1.0 - sparsity;
    double k = filterConcentration(strength);

    // Two-level structure: important filters keep more weights, and
    // within the tensor some input channels stay better connected than
    // others.  Both axes matter: filters drive row imbalance in the
    // forward mapping, channels in the backward-data mapping.
    std::vector<double> chan_mult(s.c);
    double chan_mean = 0.0;
    for (int c = 0; c < s.c; ++c) {
        chan_mult[c] = 0.25 + rng.beta((float)(keep_mean * k),
                                       (float)((1.0 - keep_mean) * k)) /
                                  std::max(keep_mean, 1e-6);
        chan_mean += chan_mult[c];
    }
    chan_mean /= (double)s.c;
    for (double &m : chan_mult)
        m /= chan_mean;

    // Values first, in one vectorized pass; the masks below only zero.
    if (fill)
        fillCounterValues(weights, stream, stddev);
    const size_t per_slice = (size_t)s.h * s.w;
    float *p = weights.data();
    for (int f = 0; f < s.n; ++f) {
        double keep_f = rng.beta((float)(keep_mean * k),
                                 (float)((1.0 - keep_mean) * k));
        // A floor on the filter's keep ratio: the training method
        // itself would remove a dead filter.  It keeps a filter alive
        // only once K * K > 25; per-slice rounding can still empty a
        // filter of 1x1 or 3x3 slices.
        keep_f = std::clamp(keep_f, 0.02, 1.0);
        for (int c = 0; c < s.c; ++c) {
            double keep = std::clamp(keep_f * chan_mult[c], 0.0, 1.0);
            auto prune_count =
                (size_t)((double)per_slice * (1.0 - keep) + 0.5);
            prune_count = std::min(prune_count, per_slice);
            float *slice = p + ((size_t)f * s.c + c) * per_slice;
            if (prune_count == per_slice)
                std::fill(slice, slice + per_slice, 0.0f);
            if (prune_count == 0 || prune_count == per_slice)
                continue;
            // Selection sampling (Knuth's Algorithm S): prune each
            // element with probability (still to prune) / (still to
            // visit), which picks exactly prune_count elements, every
            // subset of that size equally likely.
            uint64_t need = prune_count;
            const auto base = (uint32_t)(slice - p);
            for (size_t j = 0; j < per_slice; ++j) {
                const bool prune =
                    (uint64_t)stream.keepBits(base + (uint32_t)j) *
                        (per_slice - j) <
                    (need << 32);
                need -= prune;
                slice[j] = zeroUnless(!prune, slice[j]);
            }
        }
    }
}

} // namespace

void
synthesizeClustered(Tensor &tensor, const ClusterParams &params,
                    const CounterStream &stream, float stddev, Rng &rng)
{
    clusteredPass(tensor, params, stream, stddev, true, rng);
}

void
applyClusteredSparsity(Tensor &tensor, const ClusterParams &params,
                       Rng &rng)
{
    const CounterStream stream(rng.next(), 0);
    clusteredPass(tensor, params, stream, 0.0f, false, rng);
}

void
applyMagnitudePruning(Tensor &weights, double sparsity)
{
    TD_ASSERT(sparsity >= 0.0 && sparsity <= 1.0,
              "sparsity %f out of range", sparsity);
    size_t n = weights.size();
    auto prune_count = (size_t)((double)n * sparsity);
    if (prune_count == 0)
        return;
    // One scratch holds the magnitudes nth_element scrambles; the
    // selection passes recompute |w| on the fly instead of keeping a
    // second pristine copy — each pass reads an element before it can
    // zero it, so the recomputed magnitude is the original one.
    std::vector<float> scratch(n);
    for (size_t i = 0; i < n; ++i)
        scratch[i] = std::fabs(weights[i]);
    std::nth_element(scratch.begin(),
                     scratch.begin() + (prune_count - 1),
                     scratch.end());
    float threshold = scratch[prune_count - 1];
    size_t pruned = 0;
    // Prune strictly-below first, then values at the threshold until the
    // target count is reached (handles ties deterministically).
    for (size_t i = 0; i < n && pruned < prune_count; ++i) {
        if (std::fabs(weights[i]) < threshold) {
            weights[i] = 0.0f;
            ++pruned;
        }
    }
    for (size_t i = 0; i < n && pruned < prune_count; ++i) {
        if (weights[i] != 0.0f &&
            std::fabs(weights[i]) == threshold) {
            weights[i] = 0.0f;
            ++pruned;
        }
    }
}

void
synthesizePruned(Tensor &weights, double sparsity, double strength,
                 const CounterStream &stream, float stddev, Rng &rng)
{
    prunePass(weights, sparsity, strength, stream, stddev, true, rng);
}

void
applyClusteredPruning(Tensor &weights, double sparsity, double strength,
                      Rng &rng)
{
    const CounterStream stream(rng.next(), 0);
    prunePass(weights, sparsity, strength, stream, 0.0f, false, rng);
}

void
fillCounterValues(Tensor &tensor, const CounterStream &stream,
                  float stddev)
{
    checkStreamExtent(tensor);
    maskRange(tensor.data(), 0, tensor.size(), stream, kKeepAll, stddev,
              true);
}

std::vector<double>
perMapDensities(const Tensor &tensor)
{
    const Shape &s = tensor.shape();
    std::vector<double> densities;
    densities.reserve((size_t)s.n * s.c);
    // Raw walk per contiguous (n, c) slice; unrolled accumulators as
    // in Tensor::nonzeros.
    size_t per_map = (size_t)s.h * s.w;
    const float *base = tensor.data();
    for (size_t m = 0; m < (size_t)s.n * s.c; ++m) {
        const float *p = base + m * per_map;
        size_t c0 = 0, c1 = 0, c2 = 0, c3 = 0, i = 0;
        for (; i + 4 <= per_map; i += 4) {
            c0 += p[i] != 0.0f;
            c1 += p[i + 1] != 0.0f;
            c2 += p[i + 2] != 0.0f;
            c3 += p[i + 3] != 0.0f;
        }
        for (; i < per_map; ++i)
            c0 += p[i] != 0.0f;
        densities.push_back((double)(c0 + c1 + c2 + c3) /
                            (double)per_map);
    }
    return densities;
}

double
mapDensityCv(const Tensor &tensor)
{
    std::vector<double> d = perMapDensities(tensor);
    double mean = 0.0;
    for (double v : d)
        mean += v;
    mean /= (double)d.size();
    if (mean <= 0.0)
        return 0.0;
    double var = 0.0;
    for (double v : d)
        var += (v - mean) * (v - mean);
    var /= (double)d.size();
    return std::sqrt(var) / mean;
}

} // namespace tensordash
