#ifndef TENSORDASH_SERVICE_PLANNER_HH_
#define TENSORDASH_SERVICE_PLANNER_HH_

/**
 * @file
 * Estimator-sized shard planning for the sweep daemon.
 *
 * Given the grid plan ModelRunner::planSweep() exposes, the planner
 * first probes the result cache — warm cells never reach a worker;
 * the daemon serves them in-process — then packs the cold cells into
 * at most max_shards worker shards, balanced by the closed-form cost
 * estimates the claim loop already trusts (LPT bin packing).
 *
 * The cells of one SynthKey stay together by default: every op cell
 * of a layer, across all of its geometry variants, shares one
 * synthesis, so scattering them across workers would synthesize the
 * tensors once per worker.  But a *giant* key group whose estimated
 * cost exceeds the per-shard target is split below key grain — its
 * op cells placed independently — trading duplicated synthesis for a
 * bounded shard makespan.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "core/runner.hh"

namespace tensordash {
namespace service {

/** One worker shard: the global op-cell indices it owns. */
struct ShardAssignment
{
    std::vector<size_t> cells;
    double cost = 0.0; ///< estimated cost (sim + charged synthesis)
};

/** Output of planJob(). */
struct ShardPlan
{
    /** Cells already in the result cache, served in-process. */
    std::vector<size_t> warm_cells;

    /** Cold cells packed into worker shards (empty when fully warm —
     * a repeat query never spawns a worker). */
    std::vector<ShardAssignment> shards;

    /** SynthKey groups whose op cells were split across >1 shard (the
     * below-key-grain splits). */
    size_t split_tasks = 0;

    /** Per-shard cost target the splits were sized against. */
    double target_cost = 0.0;

    size_t coldCellCount() const
    {
        size_t n = 0;
        for (const ShardAssignment &s : shards)
            n += s.cells.size();
        return n;
    }
};

/**
 * Probe the result cache for every cell of @p plan: out[i] != 0 means
 * cell i's key is already stored (memo or @p cache_dir).  Probing
 * warms the process memo as a side effect, which is exactly what the
 * daemon wants — its in-process warm pass then hits memory, not disk.
 */
std::vector<uint8_t> probeWarm(const std::vector<GridCellInfo> &plan,
                               const std::string &cache_dir);

/**
 * Plan one job: probe, then pack cold cells into at most
 * @p max_shards shards (>= 1).  Deterministic — same plan and cache
 * state, same shards.
 */
ShardPlan planJob(const std::vector<GridCellInfo> &plan,
                  const std::string &cache_dir, size_t max_shards);

} // namespace service
} // namespace tensordash

#endif // TENSORDASH_SERVICE_PLANNER_HH_
