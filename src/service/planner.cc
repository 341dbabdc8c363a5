#include "service/planner.hh"

#include <algorithm>
#include <map>
#include <set>

#include "common/logging.hh"
#include "core/result_store.hh"

namespace tensordash {
namespace service {

namespace {

/** One packable unit: every cold cell of one SynthKey or, after a
 * below-key-grain split, a single op cell. */
struct PackUnit
{
    std::vector<size_t> cells;
    double cost = 0.0;
    uint64_t synth_key = 0; ///< the synthesis the cells share
};

} // namespace

std::vector<uint8_t>
probeWarm(const std::vector<GridCellInfo> &plan,
          const std::string &cache_dir)
{
    std::vector<uint8_t> warm(plan.size(), 0);
    ResultStore &store = ResultStore::shared();
    OpCellResult scratch;
    for (size_t i = 0; i < plan.size(); ++i)
        warm[i] = store.lookup(plan[i].key, &scratch, cache_dir);
    return warm;
}

ShardPlan
planJob(const std::vector<GridCellInfo> &plan,
        const std::string &cache_dir, size_t max_shards)
{
    TD_ASSERT(max_shards >= 1, "planJob needs at least one shard");
    // planSweep() emits entry i with cell == i; the packing below
    // indexes the plan by cell and depends on that.
    for (size_t i = 0; i < plan.size(); ++i)
        TD_ASSERT(plan[i].cell == i,
                  "plan entry %zu holds cell %zu: not a planSweep() "
                  "grid", i, plan[i].cell);
    ShardPlan out;
    std::vector<uint8_t> warm = probeWarm(plan, cache_dir);

    // Group the cold cells by the synthesis they share: a SynthKey
    // spans a layer's geometry variants, so it is the default packing
    // unit (one synthesis per key).  std::map keeps the order
    // deterministic.
    std::map<uint64_t, PackUnit> groups;
    double total_cost = 0.0;
    for (size_t i = 0; i < plan.size(); ++i) {
        if (warm[i]) {
            out.warm_cells.push_back(plan[i].cell);
            continue;
        }
        PackUnit &unit = groups[plan[i].synth_key];
        unit.synth_key = plan[i].synth_key;
        unit.cells.push_back(plan[i].cell);
        double c = plan[i].est_cost + plan[i].synth_cost;
        unit.cost += c;
        total_cost += c;
    }
    if (groups.empty())
        return out; // fully warm: no workers, no shards

    // Per-shard cost target.  A key group costlier than the target is
    // a giant: bound the makespan by splitting it below key grain
    // (each op cell becomes its own unit; a worker that receives a
    // lone cell re-synthesizes the layer, which the split's cost
    // accounting accepts as the price of balance).
    out.target_cost = total_cost / (double)max_shards;
    std::vector<PackUnit> units;
    std::set<uint64_t> split_keys;
    for (auto &kv : groups) {
        PackUnit &unit = kv.second;
        if (max_shards > 1 && unit.cells.size() > 1 &&
            unit.cost > out.target_cost) {
            split_keys.insert(unit.synth_key);
            for (size_t cell : unit.cells) {
                PackUnit split;
                split.synth_key = unit.synth_key;
                split.cells.push_back(cell);
                split.cost = plan[cell].est_cost +
                             plan[cell].synth_cost;
                units.push_back(std::move(split));
            }
        } else {
            units.push_back(std::move(unit));
        }
    }

    // Longest-processing-time packing: costliest unit first, always
    // into the least-loaded shard.  stable_sort + index tie-break
    // keeps the plan deterministic.
    std::stable_sort(units.begin(), units.end(),
                     [](const PackUnit &a, const PackUnit &b) {
                         return a.cost > b.cost;
                     });
    size_t nshards = std::min(max_shards, units.size());
    out.shards.resize(nshards);
    // Which shard each split key's cells landed in (split_tasks
    // counts only keys that truly ended up on >1 shard).
    std::map<uint64_t, std::set<size_t>> key_shards;
    for (PackUnit &unit : units) {
        size_t best = 0;
        for (size_t s = 1; s < nshards; ++s)
            if (out.shards[s].cost < out.shards[best].cost)
                best = s;
        if (split_keys.count(unit.synth_key))
            key_shards[unit.synth_key].insert(best);
        out.shards[best].cost += unit.cost;
        out.shards[best].cells.insert(out.shards[best].cells.end(),
                                      unit.cells.begin(),
                                      unit.cells.end());
    }
    for (const auto &kv : key_shards)
        out.split_tasks += kv.second.size() > 1;

    // Sorted cell lists make shard contents reproducible and the
    // worker's ownership masks cheap to build.
    for (ShardAssignment &s : out.shards)
        std::sort(s.cells.begin(), s.cells.end());
    return out;
}

} // namespace service
} // namespace tensordash
