#include "sim/tile.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "common/logging.hh"

namespace tensordash {

Tile::Tile(const TileConfig &config)
    : config_(config),
      pattern_(config.lanes, config.depth, config.interconnect),
      scheduler_(pattern_)
{
    TD_ASSERT(config.rows >= 1 && config.cols >= 1,
              "tile needs at least one row and one column");
}

uint64_t
Tile::run(const TileJob &job, TileStats &stats,
          std::vector<std::vector<double>> *outputs)
{
    int nrows = (int)job.b.size();
    int ncols = job.cols;
    TD_ASSERT(nrows >= 1 && nrows <= config_.rows,
              "job uses %d rows, tile has %d", nrows, config_.rows);
    TD_ASSERT(ncols >= 1 && ncols <= config_.cols,
              "job uses %d cols, tile has %d", ncols, config_.cols);
    TD_ASSERT(job.a.empty() || (int)job.a.size() == ncols,
              "job has %zu A streams for %d cols", job.a.size(), ncols);
    int steps = job.steps();
    for (const auto &s : job.b)
        TD_ASSERT(s.rows() == steps, "B stream length mismatch");
    for (const auto &s : job.a)
        TD_ASSERT(s.rows() == steps, "A stream length mismatch");

    stats.dense_cycles += steps;
    stats.b_rows_fetched += (uint64_t)nrows * steps;
    stats.a_rows_fetched += (uint64_t)ncols * steps;
    if (steps == 0)
        return 0;

    if (outputs) {
        TD_ASSERT((int)job.a.size() == ncols,
                  "functional run needs A streams");
        outputs->assign(nrows, std::vector<double>(ncols, 0.0));
        for (const auto &s : job.b)
            TD_ASSERT(s.hasValues(), "functional run needs values");
        for (const auto &s : job.a)
            TD_ASSERT(s.hasValues(), "functional run needs values");
    }

    const int depth = config_.depth;
    const int lanes = config_.lanes;
    const int per_word = scheduler_.rowsPerWord();
    const int words = (nrows + per_word - 1) / per_word;
    const size_t stride = (size_t)steps + depth;

    // Pack the B masks: row r is segment r % per_word of word
    // r / per_word.  The `depth` zero steps after each word's stream
    // are the window's out-of-stream steps.
    packed_.assign((size_t)words * stride, 0);
    for (int r = 0; r < nrows; ++r) {
        uint64_t *dst = packed_.data() + (size_t)(r / per_word) * stride;
        const int shift = (r % per_word) * lanes;
        for (int s = 0; s < steps; ++s)
            dst[s] |= (uint64_t)job.b[r].nzMask(s) << shift;
    }
    const uint64_t row_lanes = (1ull << lanes) - 1u;
    auto occupied = [&](int w) {
        const int rows = std::min(per_word, nrows - w * per_word);
        return rows * lanes == 64 ? ~0ull : (1ull << (rows * lanes)) - 1u;
    };

    int base = 0;
    uint64_t cycles = 0, picks = 0, stalls = 0;
    std::array<int16_t, 64> select;
    while (base < steps) {
        ++cycles;
        const int valid = std::min(depth, steps - base);
        uint64_t *win = packed_.data() + base;
        uint64_t cycle_picks = 0;
        for (int w = 0; w < words; ++w) {
            uint64_t *z = win + (size_t)w * stride;
            const uint64_t taken = scheduler_.resolve(
                z, occupied(w), outputs ? select.data() : nullptr);
            cycle_picks += (uint64_t)std::popcount(taken);
            // Each PE accumulates its products in lane order, cycle
            // after cycle.
            for (int j = 0; outputs && j < per_word; ++j) {
                const int r = w * per_word + j;
                uint64_t bits = taken >> (j * lanes) & row_lanes;
                for (; bits; bits &= bits - 1) {
                    const int lane = std::countr_zero(bits);
                    const MoveOption &opt =
                        pattern_.options(lane)[select[j * lanes + lane]];
                    const int row_abs = base + opt.step;
                    const float bv = job.b[r].value(row_abs, opt.lane);
                    for (int c = 0; c < ncols; ++c)
                        (*outputs)[r][c] +=
                            (double)job.a[c].value(row_abs, opt.lane) *
                            (double)bv;
                }
            }
        }
        picks += cycle_picks;

        // The slowest row's AS: the leading window steps that no
        // packed word still has pending.
        int advance = valid;
        for (int w = 0; w < words; ++w) {
            const uint64_t *z = win + (size_t)w * stride;
            int as = 0;
            while (as < advance && z[as] == 0)
                ++as;
            advance = as;
        }
        TD_ASSERT(advance > 0 || cycle_picks > 0,
                  "tile made no progress at step base %d", base);
        if (advance < valid && advance < depth)
            ++stalls;
        base += advance;
    }

    stats.cycles += cycles;
    stats.mult_ops += picks * ncols;
    stats.idle_mult_slots += (cycles * nrows * lanes - picks) * ncols;
    stats.stall_cycles += stalls;
    TD_ASSERT(cycles <= (uint64_t)steps,
              "tile exceeded the dense cycle count");
    return cycles;
}

} // namespace tensordash
