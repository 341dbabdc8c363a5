#ifndef PERFBENCH_FIGURES_HH_
#define PERFBENCH_FIGURES_HH_

/**
 * @file
 * The benchmark's sweep definitions and output checks.
 *
 * Every workload's grid is described as a service::JobSpec, the one
 * sweep description that both the in-process runner (toSweepSpec +
 * baseConfig) and td-sweepd accept, so the in-process and daemon
 * paths compute the identical grid.  Tables render exactly as the
 * fig13/fig22 figure benches do, so the committed goldens in bench/golden check them.
 */

#include <string>
#include <vector>

#include "core/tensordash.hh"
#include "service/job_spec.hh"

namespace perfbench {

/** Seed the committed goldens were generated with. */
inline constexpr uint64_t kGoldenSeed = 7;

/** Fig. 22's tile-count axis. */
inline const std::vector<int> kFig22Tiles = {1, 2, 4, 8, 16, 32};

/** Fig. 13: the paper suite, training, Analytic memory, 600k
 * sampling; optionally with the phase axis or at estimate fidelity. */
tensordash::service::JobSpec fig13Job(uint64_t seed,
                                      bool phase_axis = false,
                                      bool estimate = false);

/** Fig. 22: six tile counts x the paper suite, Pipelined memory, 250k
 * sampling. */
tensordash::service::JobSpec fig22Job(uint64_t seed);

/** Fig. 13's table (per-op and total speedups, mean and geomean) for
 * one variant. */
tensordash::Table renderFig13(const tensordash::SweepResult &sweep,
                              size_t variant = 0);

/** Fig. 22's table (per-op stall fractions per tile count, crossover
 * row) — requires a fig22Job() sweep. */
tensordash::Table renderFig22(const tensordash::SweepResult &sweep);

/** "" when @p csv equals the file at @p path byte for byte, else the
 * reason. */
std::string checkGolden(const std::string &csv, const std::string &path);

/** Op cells of @p a whose serialized bytes differ from @p b's (every
 * cell of @p a when the grids differ in shape). */
size_t cellMismatches(const tensordash::SweepResult &a,
                      const tensordash::SweepResult &b);

/** Cross-check of a fig13Job(seed, true) sweep against the plain
 * fig13 sweep @p ref: the training variant must equal @p ref cell for
 * cell, and every inference slot its Forward cell.  Returns the number
 * of mismatched cells. */
size_t phaseMismatches(const tensordash::SweepResult &phase,
                       const tensordash::SweepResult &ref);

/** Serialized bytes of one op cell. */
std::vector<uint8_t> cellBytes(const tensordash::OpCellResult &cell);

} // namespace perfbench

#endif // PERFBENCH_FIGURES_HH_
