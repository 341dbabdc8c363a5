#ifndef TENSORDASH_TESTS_REFERENCE_TILE_HH_
#define TENSORDASH_TESTS_REFERENCE_TILE_HH_

/**
 * @file
 * A slow, plainly correct reference of the TensorDash tile (paper
 * sections 3.2-3.3, Figs. 9-11), for differential tests of Tile::run
 * and HierarchicalScheduler::schedule().
 *
 * It transliterates the hardware with no shortcuts:
 *  - every row has its own staging window: up to `depth` pending masks
 *    starting at the tile's shared base step;
 *  - each cycle, every row's scheduler walks MuxPattern::levels() in
 *    order; inside a level, every lane takes the first option, in its
 *    static priority order, whose position is still pending in Z as
 *    the previous levels left it;
 *  - only after the whole level has decided are its choices stripped
 *    from Z (the AND gates between levels);
 *  - the window then advances by the slowest row's AS (the number of
 *    leading fully consumed window steps), refilling from the streams.
 */

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/mux_pattern.hh"
#include "sim/tile.hh"

namespace tensordash {
namespace reference {

/**
 * One cycle of one row's scheduler.  @p z holds the row's pending
 * masks for the valid window steps; chosen pairs are cleared from it.
 *
 * @return the option index (into pattern.options(lane)) each lane
 *         selected, -1 for an idle lane
 */
inline std::vector<int>
scheduleRow(const MuxPattern &pattern, std::vector<uint32_t> &z)
{
    std::vector<int> select((size_t)pattern.lanes(), -1);
    for (const std::vector<int> &level : pattern.levels()) {
        std::vector<std::pair<int, int>> chosen;
        for (int lane : level) {
            const std::vector<MoveOption> &options = pattern.options(lane);
            for (size_t i = 0; i < options.size(); ++i) {
                const MoveOption &opt = options[i];
                if (opt.step < (int)z.size() &&
                    (z[(size_t)opt.step] >> opt.lane & 1u)) {
                    select[(size_t)lane] = (int)i;
                    chosen.emplace_back(opt.step, opt.lane);
                    break;
                }
            }
        }
        for (const auto &[step, lane] : chosen)
            z[(size_t)step] &= ~(1u << lane);
    }
    return select;
}

/** What one reference tile run produces. */
struct TileRun
{
    uint64_t cycles = 0;
    TileStats stats;
    /** [row][col] accumulators; empty unless values were requested. */
    std::vector<std::vector<double>> outputs;
};

/**
 * Run @p job on a tile of @p config.  With @p values set, every chosen
 * pair also multiplies its B value into each column's A value at the
 * same (step, lane) position.
 */
inline TileRun
runTile(const TileConfig &config, const TileJob &job, bool values)
{
    const MuxPattern pattern(config.lanes, config.depth,
                             config.interconnect);
    const int nrows = (int)job.b.size();
    const int ncols = job.cols;
    const int steps = job.steps();
    const int depth = config.depth;

    TileRun run;
    run.stats.dense_cycles = (uint64_t)steps;
    run.stats.b_rows_fetched = (uint64_t)nrows * steps;
    run.stats.a_rows_fetched = (uint64_t)ncols * steps;
    if (values)
        run.outputs.assign((size_t)nrows,
                           std::vector<double>((size_t)ncols, 0.0));

    // Each row's staging window: the pending masks of steps
    // base .. base + valid - 1.
    std::vector<std::vector<uint32_t>> window((size_t)nrows);
    int base = 0;
    auto refill = [&] {
        int valid = std::min(depth, steps - base);
        for (int r = 0; r < nrows; ++r)
            while ((int)window[(size_t)r].size() < valid)
                window[(size_t)r].push_back(job.b[(size_t)r].nzMask(
                    base + (int)window[(size_t)r].size()));
    };
    refill();

    while (base < steps) {
        ++run.cycles;
        const int valid = std::min(depth, steps - base);
        int advance = valid;
        for (int r = 0; r < nrows; ++r) {
            std::vector<uint32_t> &z = window[(size_t)r];
            std::vector<int> select = scheduleRow(pattern, z);
            int picks = 0;
            for (int lane = 0; lane < config.lanes; ++lane) {
                if (select[(size_t)lane] < 0)
                    continue;
                ++picks;
                const MoveOption &opt =
                    pattern.options(lane)[(size_t)select[(size_t)lane]];
                if (!values)
                    continue;
                const int row = base + opt.step;
                const double b = job.b[(size_t)r].value(row, opt.lane);
                for (int c = 0; c < ncols; ++c)
                    run.outputs[(size_t)r][(size_t)c] +=
                        (double)job.a[(size_t)c].value(row, opt.lane) * b;
            }
            run.stats.mult_ops += (uint64_t)picks * ncols;
            run.stats.idle_mult_slots +=
                (uint64_t)(config.lanes - picks) * ncols;
            int as = 0;
            while (as < valid && z[(size_t)as] == 0)
                ++as;
            advance = std::min(advance, as);
        }
        if (advance < valid && advance < depth)
            ++run.stats.stall_cycles;
        base += advance;
        for (std::vector<uint32_t> &z : window)
            z.erase(z.begin(), z.begin() + advance);
        refill();
    }
    run.stats.cycles = run.cycles;
    return run;
}

} // namespace reference
} // namespace tensordash

#endif // TENSORDASH_TESTS_REFERENCE_TILE_HH_
