/**
 * @file
 * Sweep-service replay bench: runs td-sweepd's planning and merge
 * pipeline in-process, with no daemon and no sockets, so the planner's
 * behaviour is measurable and assertable in CI.
 *
 * The replay mirrors the daemon's job flow exactly:
 *
 *   planSweep -> planJob (cache probe + LPT shard packing)
 *             -> runSweepCells per shard -> merge
 *
 * and checks four properties:
 *
 *   - the merged shard cover is byte-identical to the unsharded
 *     runSweep() of the same spec (counters aside, which count work
 *     done, not results);
 *   - when the worker fleet is sized so the per-shard cost target
 *     falls below the grid's costliest layer task, the planner splits
 *     that giant below task grain (split_tasks >= 1) and the partial
 *     present masks still merge back to the identical sweep;
 *   - a re-plan over the now-warm cache packs zero shards — the
 *     repeat-query path that lets the daemon answer without spawning
 *     a single worker;
 *   - a config-axis grid (fig17's five PE-row variants) replayed cold
 *     is byte-identical to an uncached direct runSweep(), so shards
 *     that carry cells of every variant reassemble exactly.
 *
 * Output is one parseable [plan]/[replay] line per step; CI greps
 * them.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "service/planner.hh"

using namespace tensordash;
using namespace tensordash::bench;
using namespace tensordash::service;

namespace {

void
printPlan(const char *grid, size_t max_shards, size_t cells,
          const ShardPlan &sp)
{
    std::printf("[plan] grid=%s max_shards=%zu cells=%zu cold=%zu "
                "warm=%zu shards=%zu split_tasks=%zu target=%.0f\n",
                grid, max_shards, cells, sp.coldCellCount(),
                sp.warm_cells.size(), sp.shards.size(),
                sp.split_tasks, sp.target_cost);
}

/** Serialized sweep with the work counters zeroed: the replay
 * comparisons care about results, not about which path produced
 * them. */
std::vector<uint8_t>
resultBytes(const SweepResult &sweep)
{
    SweepResult copy = sweep;
    copy.cache_hits = 0;
    copy.simulated = 0;
    copy.estimated = 0;
    return copy.serialize();
}

/** Execute one shard plan the way the daemon does (shell from the
 * warm cells, then merge each shard) and report wall time. */
SweepResult
replay(const char *grid, const ModelRunner &runner,
       const SweepSpec &spec, const ShardPlan &sp)
{
    const auto start = std::chrono::steady_clock::now();
    SweepResult merged = runner.runSweepCells(spec, sp.warm_cells);
    for (const ShardAssignment &shard : sp.shards)
        merged.merge(runner.runSweepCells(spec, shard.cells));
    const auto ms = std::chrono::duration_cast<
        std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                   start);
    std::printf("[replay] grid=%s shards=%zu simulated=%zu "
                "hits=%zu ms=%lld\n",
                grid, sp.shards.size(), merged.simulated,
                merged.cache_hits, (long long)ms.count());
    return merged;
}

} // namespace

int
main()
{
    banner("bench_sweepd: sweep-service shard planning replay");

    const FigureGrid fig13 = findFigure("fig13")->grid();
    const RunConfig &cfg = fig13.base;
    ModelRunner runner(cfg);
    const SweepSpec &spec = fig13.spec;
    const std::vector<GridCellInfo> plan = runner.planSweep(spec);

    // Per-layer-task totals drive the fleet sizing below.
    std::map<size_t, double> slot_cost;
    double total_cost = 0.0;
    for (const GridCellInfo &c : plan) {
        double cost = c.est_cost + c.synth_cost;
        slot_cost[c.slot] += cost;
        total_cost += cost;
    }
    double max_slot = 0.0;
    for (const auto &kv : slot_cost)
        max_slot = std::max(max_slot, kv.second);

    // Plan A: a small fleet.  Whole layers pack whole (no giant
    // relative to the generous per-shard target).
    const size_t kFleet = 4;
    const ShardPlan plan_fleet =
        planJob(plan, cfg.cache_dir, kFleet);
    printPlan("fig13", kFleet, plan.size(), plan_fleet);

    // Plan B: size the fleet so the per-shard target falls below the
    // costliest layer task — the planner must split that giant below
    // task grain to bound the shard makespan.
    const size_t split_shards = std::min<size_t>(
        32, std::max<size_t>(2, (size_t)(total_cost / max_slot) + 1));
    const ShardPlan plan_split =
        planJob(plan, cfg.cache_dir, split_shards);
    printPlan("fig13-giant", split_shards, plan.size(), plan_split);

    // Execute the split plan cold: partial per-slot masks from the
    // below-task-grain shards must reunite into the full sweep.
    SweepResult merged =
        replay("fig13-giant", runner, spec, plan_split);
    SweepResult direct = runner.runSweep(spec);
    bool identical = resultBytes(merged) == resultBytes(direct);
    std::printf("[replay] grid=fig13-giant identical=%d\n",
                identical);

    // The small-fleet plan replays over the warm cache and must land
    // on the same bytes.
    SweepResult merged_fleet =
        replay("fig13", runner, spec, plan_fleet);
    bool identical_fleet =
        resultBytes(merged_fleet) == resultBytes(direct);
    std::printf("[replay] grid=fig13 identical=%d\n",
                identical_fleet);

    // Re-plan over the warm cache: every cell probes warm, so the
    // plan packs zero shards — the daemon's no-worker repeat path.
    const ShardPlan plan_warm = planJob(plan, cfg.cache_dir, kFleet);
    printPlan("fig13-warm", kFleet, plan.size(), plan_warm);

    // Config-axis replay, cold: with the memo and synthesis cache
    // cleared every shard simulates, and the merge must match a direct
    // run that bypasses the result cache.
    ResultStore::shared().clearMemo();
    SynthCache::shared().clear();
    const FigureGrid fig17 = findFigure("fig17")->grid();
    const RunConfig &cfg17 = fig17.base;
    const ModelRunner runner17(cfg17);
    const SweepSpec &spec17 = fig17.spec;
    const std::vector<GridCellInfo> grid17 = runner17.planSweep(spec17);
    const ShardPlan plan17 = planJob(grid17, cfg17.cache_dir, kFleet);
    printPlan("fig17", kFleet, grid17.size(), plan17);
    SweepResult merged17 = replay("fig17", runner17, spec17, plan17);
    RunConfig uncached = cfg17;
    uncached.cache = false;
    bool identical17 = resultBytes(merged17) ==
                       resultBytes(ModelRunner(uncached).runSweep(spec17));
    std::printf("[replay] grid=fig17 identical=%d\n", identical17);

    return identical && identical_fleet && identical17 &&
                   plan_split.split_tasks >= 1 &&
                   plan_warm.shards.empty()
               ? 0
               : 1;
}
