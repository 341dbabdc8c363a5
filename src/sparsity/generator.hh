#ifndef TENSORDASH_SPARSITY_GENERATOR_HH_
#define TENSORDASH_SPARSITY_GENERATOR_HH_

/**
 * @file
 * Synthetic sparsity generators.
 *
 * The paper observes (section 4.4) that nonzero activations and
 * gradients cluster in specific 2-D feature maps: a sample that has
 * feature X produces a dense map for X's filter and near-empty maps for
 * absent features, especially in deep layers.  The clustered generator
 * reproduces this: each (sample, channel) map draws its own density
 * from a Beta distribution whose concentration sets how bimodal the
 * per-map densities are, then elements are kept i.i.d. at that density.
 * The Bernoulli generator is the unclustered control (paper Fig. 20
 * uses it for the random-sparsity sweep).
 *
 * The clustered generators are mask-first: the per-map densities and
 * per-filter keep ratios come from the caller's Rng, but whether an
 * element is kept is a CounterStream hash of its index, not a draw
 * from a serial stream.  The synthesize* forms then write each kept
 * element's value from the same stream, so one pass produces a tensor
 * whose zero mask is the drawn mask by construction; the apply* forms
 * draw a key from the Rng and zero an existing tensor through the same
 * masks.
 */

#include "common/rng.hh"
#include "tensor/tensor.hh"

namespace tensordash {

/** Zero out elements i.i.d. so the tensor hits @p sparsity. */
void applyBernoulliSparsity(Tensor &tensor, double sparsity, Rng &rng);

/** Parameters for the clustered generator. */
struct ClusterParams
{
    /** Target zero fraction in [0, 1]. */
    double sparsity = 0.5;

    /**
     * Clustering strength in [0, 1]: 0 behaves like Bernoulli, 1 makes
     * per-map densities strongly bimodal (maps are mostly-dense or
     * mostly-empty).
     */
    double strength = 0.5;
};

/** Beta concentration of the per-map densities at clustering
 * @p strength: 80 (nearly i.i.d.) down to 0.8 (strongly bimodal). */
double mapConcentration(double strength);

/** Beta concentration of the per-filter and per-channel keep ratios
 * of clustered pruning at clustering @p strength. */
double filterConcentration(double strength);

/**
 * Mask-first clustered synthesis: each (sample, channel) map draws a
 * density d from Beta(mean * k, (1 - mean) * k) on @p rng, with
 * k = mapConcentration(strength); element i is kept iff
 * stream.keepBits(i) < d * 2^32 and then holds stream.value(i,
 * @p stddev), every other element is zero.  One-element maps (FC
 * layers) skip the Beta and keep at the mean density, which is the
 * same distribution.  A target sparsity of 0 keeps everything and 1
 * keeps nothing; neither draws from @p rng.
 */
void synthesizeClustered(Tensor &tensor, const ClusterParams &params,
                         const CounterStream &stream, float stddev,
                         Rng &rng);

/** synthesizeClustered's masks over the tensor's own values: draws
 * a key from @p rng, then zeroes what synthesizeClustered would. */
void applyClusteredSparsity(Tensor &tensor, const ClusterParams &params,
                            Rng &rng);

/**
 * Magnitude-prune a weight tensor to @p sparsity: the smallest-|w|
 * fraction becomes zero (what training-time pruning converges to).
 */
void applyMagnitudePruning(Tensor &weights, double sparsity);

/**
 * Mask-first training-time pruning with per-filter structure.  Each
 * filter draws a keep ratio, and each input channel a multiplier, from
 * Beta distributions (mean = 1 - sparsity,
 * k = filterConcentration(strength)) on @p rng; a filter's ratio is
 * clamped to at least 0.02.  Methods like sparse momentum redistribute
 * surviving weights toward important filters, which is what creates
 * the inter-row work imbalance the paper observes for the pruned
 * ResNets; @p strength controls how uneven the redistribution is.
 *
 * Each (filter, channel) slice then prunes exactly
 * round(size * (1 - keep)) elements, a uniformly random subset chosen
 * by stream.keepBits — the distribution magnitude pruning of i.i.d.
 * weights has — and the survivors hold stream.value(i, @p stddev).
 */
void synthesizePruned(Tensor &weights, double sparsity, double strength,
                      const CounterStream &stream, float stddev,
                      Rng &rng);

/** synthesizePruned's masks over the tensor's own values: draws a key
 * from @p rng, then zeroes what synthesizePruned would. */
void applyClusteredPruning(Tensor &weights, double sparsity,
                           double strength, Rng &rng);

/** Fill every element with stream.value(i, @p stddev) (never zero). */
void fillCounterValues(Tensor &tensor, const CounterStream &stream,
                       float stddev);

/** Per-(sample, channel) map densities, for clustering diagnostics. */
std::vector<double> perMapDensities(const Tensor &tensor);

/**
 * Coefficient of variation of the per-map densities; ~0 for Bernoulli
 * masks, grows with clustering.
 */
double mapDensityCv(const Tensor &tensor);

} // namespace tensordash

#endif // TENSORDASH_SPARSITY_GENERATOR_HH_
