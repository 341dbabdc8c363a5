#ifndef TENSORDASH_CORE_FIGURES_HH_
#define TENSORDASH_CORE_FIGURES_HH_

/**
 * @file
 * Paper-figure definitions shared by the figure benches and td-sweep,
 * so both render byte-identical tables (and hit the same goldens)
 * from one source.
 */

#include <cstdint>

#include "common/table.hh"
#include "core/runner.hh"

namespace tensordash {

/** True when TD_FAST=1 requests reduced sampling. */
bool fastMode();

/**
 * Per-op dense-MAC sampling cap of the paper-suite figures (Fig. 13
 * and the figures sharing its grid): 600000, or 120000 under TD_FAST.
 */
uint64_t paperSampleBudget();

/**
 * Fig. 13's table: one row per model with the training ops' speedups
 * and the total, then the average and geomean rows.
 */
Table fig13Table(const SweepResult &sweep);

} // namespace tensordash

#endif // TENSORDASH_CORE_FIGURES_HH_
