/**
 * @file
 * Tests for the TensorDash tile (paper section 3.3, Fig. 11).
 *
 * Key behaviours: one-side (B) extraction with a shared schedule per
 * row, lockstep window advance (min AS across rows), work-imbalance
 * stalls, and exact functional results for every PE in the grid.  A
 * seeded differential sweep checks Tile::run against the plain
 * reference tile (reference_tile.hh) across rows, lanes, depths,
 * sparsities and every interconnect.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/logging.hh"
#include "common/rng.hh"
#include "reference_tile.hh"
#include "sim/tile.hh"

namespace tensordash {
namespace {

BlockStream
randomStream(Rng &rng, int lanes, int rows, double sparsity,
             bool with_values = true)
{
    BlockStream s(lanes, with_values);
    std::vector<float> row(lanes);
    for (int r = 0; r < rows; ++r) {
        uint32_t mask = 0;
        for (int l = 0; l < lanes; ++l) {
            bool zero = rng.bernoulli((float)sparsity);
            float v = zero ? 0.0f : (float)rng.uniformInt(1, 4) *
                                    (rng.bernoulli(0.5f) ? 1.0f : -1.0f);
            row[l] = v;
            if (v != 0.0f)
                mask |= 1u << l;
        }
        if (with_values)
            s.appendValueRow(row.data());
        else
            s.appendMaskRow(mask);
    }
    return s;
}

TileJob
randomJob(Rng &rng, const TileConfig &cfg, int steps, double b_sparsity,
          double a_sparsity, bool with_values = true)
{
    TileJob job;
    for (int r = 0; r < cfg.rows; ++r)
        job.b.push_back(randomStream(rng, cfg.lanes, steps, b_sparsity,
                                     with_values));
    for (int c = 0; c < cfg.cols; ++c)
        job.a.push_back(randomStream(rng, cfg.lanes, steps, a_sparsity,
                                     with_values));
    job.cols = cfg.cols;
    return job;
}

double
denseDot(const BlockStream &a, const BlockStream &b)
{
    double acc = 0.0;
    for (int r = 0; r < a.rows(); ++r)
        for (int l = 0; l < a.lanes(); ++l)
            acc += (double)a.value(r, l) * (double)b.value(r, l);
    return acc;
}

TEST(Tile, DenseJobTakesBaselineCycles)
{
    Rng rng(1);
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job = randomJob(rng, cfg, 20, 0.0, 0.0, false);
    TileStats stats;
    EXPECT_EQ(tile.run(job, stats), 20u);
    EXPECT_EQ(Tile::baselineCycles(job), 20u);
    EXPECT_DOUBLE_EQ(stats.speedup(), 1.0);
}

TEST(Tile, AllZeroBSideHitsDepthCap)
{
    Rng rng(2);
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job = randomJob(rng, cfg, 30, 1.0, 0.0, false);
    TileStats stats;
    EXPECT_EQ(tile.run(job, stats), 10u);
}

TEST(Tile, OneSideExtractionIgnoresASparsity)
{
    Rng rng(3);
    TileConfig cfg;
    Tile tile(cfg);
    // Sparse A, dense B: a tile extracts sparsity only from B.
    TileJob job = randomJob(rng, cfg, 25, 0.0, 0.9, false);
    TileStats stats;
    EXPECT_EQ(tile.run(job, stats), 25u);
}

TEST(Tile, SlowestRowGatesAdvance)
{
    // One dense row stream among sparse ones: the tile advances at the
    // dense row's pace (1 step/cycle), the paper's imbalance effect.
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job;
    int steps = 24;
    for (int r = 0; r < 4; ++r) {
        BlockStream s(16, false);
        for (int i = 0; i < steps; ++i)
            s.appendMaskRow(r == 0 ? 0xffffu : 0x0000u);
        job.b.push_back(s);
    }
    for (int c = 0; c < 4; ++c) {
        BlockStream s(16, false);
        for (int i = 0; i < steps; ++i)
            s.appendMaskRow(0xffffu);
        job.a.push_back(s);
    }
    job.cols = 4;
    TileStats stats;
    EXPECT_EQ(tile.run(job, stats), (uint64_t)steps);
    EXPECT_GT(stats.stall_cycles, 0u);
}

TEST(Tile, SingleRowAvoidsImbalance)
{
    // The same sparse stream runs faster in a 1-row tile than when a
    // dense neighbour gates it (Fig. 17's trend).
    Rng rng(4);
    int steps = 48;
    BlockStream sparse = randomStream(rng, 16, steps, 0.9, false);
    BlockStream dense = randomStream(rng, 16, steps, 0.0, false);
    BlockStream acts = randomStream(rng, 16, steps, 0.0, false);

    TileConfig one_row{.rows = 1, .cols = 1};
    Tile tile1(one_row);
    TileJob job1;
    job1.b.push_back(sparse);
    job1.a.push_back(acts);
    job1.cols = 1;
    TileStats s1;
    uint64_t fast = tile1.run(job1, s1);

    TileConfig two_rows{.rows = 2, .cols = 1};
    Tile tile2(two_rows);
    TileJob job2;
    job2.b.push_back(dense);
    job2.b.push_back(sparse);
    job2.a.push_back(acts);
    job2.cols = 1;
    TileStats s2;
    uint64_t slow = tile2.run(job2, s2);

    EXPECT_LT(fast, slow);
    EXPECT_EQ(slow, (uint64_t)steps);
}

/** Functional sweep over geometry and sparsity. */
class TileFunctional : public ::testing::TestWithParam<
    std::tuple<int, int, int, int>>
{
    // (rows, cols, sparsity_pct, seed)
};

TEST_P(TileFunctional, EveryPeMatchesDenseDotExactly)
{
    auto [rows, cols, sparsity_pct, seed] = GetParam();
    Rng rng((uint64_t)seed * 97 + rows * 13 + cols * 7 + sparsity_pct);
    TileConfig cfg;
    cfg.rows = rows;
    cfg.cols = cols;
    Tile tile(cfg);
    TileJob job = randomJob(rng, cfg, 30, sparsity_pct / 100.0,
                            sparsity_pct / 100.0);
    TileStats stats;
    std::vector<std::vector<double>> outputs;
    tile.run(job, stats, &outputs);
    ASSERT_EQ(outputs.size(), (size_t)rows);
    for (int r = 0; r < rows; ++r) {
        ASSERT_EQ(outputs[r].size(), (size_t)cols);
        for (int c = 0; c < cols; ++c)
            EXPECT_EQ(outputs[r][c], denseDot(job.a[c], job.b[r]))
                << "PE(" << r << "," << c << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    GeometrySweep, TileFunctional,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(1, 4),
                       ::testing::Values(0, 40, 80),
                       ::testing::Values(1, 2)));

/** Cycle property sweep: more rows can only slow a tile down. */
class TileRows : public ::testing::TestWithParam<int>
{
};

TEST_P(TileRows, CyclesBoundedByDenseAndDepth)
{
    int sparsity_pct = GetParam();
    Rng rng(500 + sparsity_pct);
    TileConfig cfg;
    Tile tile(cfg);
    TileStats stats;
    for (int trial = 0; trial < 5; ++trial) {
        TileJob job = randomJob(rng, cfg, 40, sparsity_pct / 100.0, 0.0,
                                false);
        uint64_t cycles = tile.run(job, stats);
        EXPECT_LE(cycles, 40u);
        EXPECT_GE(cycles, (40u + 2) / 3);
    }
}

INSTANTIATE_TEST_SUITE_P(Sparsities, TileRows,
                         ::testing::Values(0, 25, 50, 75, 95));

TEST(Tile, MoreRowsNeverFaster)
{
    // Average over several jobs: a 8-row tile sharing one window cannot
    // beat 4 independent 2-row tiles on the same streams.
    Rng rng(42);
    int steps = 64;
    std::vector<BlockStream> b_streams;
    for (int r = 0; r < 8; ++r)
        b_streams.push_back(randomStream(rng, 16, steps, 0.7, false));
    BlockStream acts = randomStream(rng, 16, steps, 0.0, false);

    TileConfig big{.rows = 8, .cols = 1};
    Tile big_tile(big);
    TileJob big_job;
    big_job.b = b_streams;
    big_job.a.push_back(acts);
    big_job.cols = 1;
    TileStats bs;
    uint64_t big_cycles = big_tile.run(big_job, bs);

    TileConfig small{.rows = 2, .cols = 1};
    Tile small_tile(small);
    uint64_t small_cycles_max = 0;
    for (int g = 0; g < 4; ++g) {
        TileJob job;
        job.b = {b_streams[2 * g], b_streams[2 * g + 1]};
        job.a.push_back(acts);
        job.cols = 1;
        TileStats ss;
        small_cycles_max = std::max(small_cycles_max,
                                    small_tile.run(job, ss));
    }
    EXPECT_GE(big_cycles, small_cycles_max);
}

TEST(Tile, PartialJobsUseFewerStreams)
{
    Rng rng(6);
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job;
    job.b.push_back(randomStream(rng, 16, 12, 0.5));
    job.a.push_back(randomStream(rng, 16, 12, 0.0));
    job.a.push_back(randomStream(rng, 16, 12, 0.0));
    job.cols = 2;
    TileStats stats;
    std::vector<std::vector<double>> outputs;
    tile.run(job, stats, &outputs);
    ASSERT_EQ(outputs.size(), 1u);
    ASSERT_EQ(outputs[0].size(), 2u);
    for (int c = 0; c < 2; ++c)
        EXPECT_EQ(outputs[0][c], denseDot(job.a[c], job.b[0]));
}

TEST(Tile, RejectsOversizedJobs)
{
    setLogThrowMode(true);
    Rng rng(7);
    TileConfig cfg{.rows = 2, .cols = 2};
    Tile tile(cfg);
    TileJob job = randomJob(rng, TileConfig{.rows = 4, .cols = 2}, 4,
                            0.0, 0.0, false);
    TileStats stats;
    EXPECT_THROW(tile.run(job, stats), SimError);
    setLogThrowMode(false);
}

TEST(Tile, RejectsMismatchedStreamLengths)
{
    setLogThrowMode(true);
    Rng rng(8);
    TileConfig cfg{.rows = 2, .cols = 1};
    Tile tile(cfg);
    TileJob job;
    job.b.push_back(randomStream(rng, 16, 4, 0.0, false));
    job.b.push_back(randomStream(rng, 16, 5, 0.0, false));
    job.a.push_back(randomStream(rng, 16, 4, 0.0, false));
    job.cols = 1;
    TileStats stats;
    EXPECT_THROW(tile.run(job, stats), SimError);
    setLogThrowMode(false);
}

TEST(Tile, MultOpsScaleWithColumns)
{
    Rng rng(9);
    int steps = 16;
    BlockStream b = randomStream(rng, 16, steps, 0.5, false);
    BlockStream a = randomStream(rng, 16, steps, 0.0, false);

    TileConfig one{.rows = 1, .cols = 1};
    TileConfig four{.rows = 1, .cols = 4};
    Tile t1(one), t4(four);
    TileJob j1, j4;
    j1.b.push_back(b);
    j1.a.push_back(a);
    j1.cols = 1;
    j4.b.push_back(b);
    for (int c = 0; c < 4; ++c)
        j4.a.push_back(a);
    j4.cols = 4;
    TileStats s1, s4;
    uint64_t c1 = t1.run(j1, s1);
    uint64_t c4 = t4.run(j4, s4);
    // Same schedule, same cycles, 4x the multiplications.
    EXPECT_EQ(c1, c4);
    EXPECT_EQ(s4.mult_ops, 4 * s1.mult_ops);
}

TEST(Tile, StatsRowFetchAccounting)
{
    Rng rng(10);
    TileConfig cfg;
    Tile tile(cfg);
    TileJob job = randomJob(rng, cfg, 10, 0.2, 0.0, false);
    TileStats stats;
    tile.run(job, stats);
    EXPECT_EQ(stats.b_rows_fetched, 4u * 10u);
    EXPECT_EQ(stats.a_rows_fetched, 4u * 10u);
    EXPECT_EQ(stats.dense_cycles, 10u);
}

TEST(Tile, MultSlotAccountingClosesEveryCycle)
{
    // Every cycle charges each of the job's rows exactly lanes x ncols
    // multiplier slots, split between mult_ops and idle_mult_slots —
    // including rows whose window was entirely zero (the fast path that
    // skips the scheduler call must keep the ledger balanced).  The
    // invariant per job: mult_ops + idle_mult_slots ==
    // lanes x cycles x ncols x nrows.
    Rng rng(11);
    for (double sparsity : {0.0, 0.5, 0.9, 1.0}) {
        for (int rows : {1, 4}) {
            TileConfig cfg;
            cfg.rows = rows;
            Tile tile(cfg);
            TileJob job = randomJob(rng, cfg, 40, sparsity, 0.0, false);
            TileStats stats;
            uint64_t cycles = tile.run(job, stats);
            EXPECT_EQ(stats.mult_ops + stats.idle_mult_slots,
                      (uint64_t)cfg.lanes * cycles * cfg.cols * rows)
                << "sparsity=" << sparsity << " rows=" << rows;
        }
    }
}

/** Differential sweep against the reference tile: (kind, lanes). */
class TileVsReference : public ::testing::TestWithParam<
    std::tuple<InterconnectKind, int>>
{
};

TEST_P(TileVsReference, CyclesStatsAndOutputsMatch)
{
    auto [kind, lanes] = GetParam();
    Rng rng(900 + (uint64_t)kind * 64 + (uint64_t)lanes);
    for (int rows : {1, 3, 4, 5, 8, 16}) {
        for (int depth = 1; depth <= 8; ++depth) {
            for (double sparsity : {0.0, 0.5, 0.9, 0.99}) {
                TileConfig cfg{.rows = rows, .cols = 2, .lanes = lanes,
                               .depth = depth, .interconnect = kind};
                Tile tile(cfg);
                const int steps = rng.uniformInt(1, 40);
                TileJob job = randomJob(rng, cfg, steps, sparsity, 0.3);
                const reference::TileRun want =
                    reference::runTile(cfg, job, true);

                TileStats timing;
                const uint64_t cycles = tile.run(job, timing);
                TileStats valued;
                std::vector<std::vector<double>> outputs;
                const uint64_t valued_cycles =
                    tile.run(job, valued, &outputs);

                SCOPED_TRACE(::testing::Message()
                             << "rows=" << rows << " depth=" << depth
                             << " sparsity=" << sparsity
                             << " steps=" << steps);
                EXPECT_EQ(cycles, want.cycles);
                EXPECT_EQ(valued_cycles, want.cycles);
                for (const TileStats *got : {&timing, &valued}) {
                    EXPECT_EQ(got->cycles, want.stats.cycles);
                    EXPECT_EQ(got->dense_cycles, want.stats.dense_cycles);
                    EXPECT_EQ(got->mult_ops, want.stats.mult_ops);
                    EXPECT_EQ(got->idle_mult_slots,
                              want.stats.idle_mult_slots);
                    EXPECT_EQ(got->stall_cycles, want.stats.stall_cycles);
                    EXPECT_EQ(got->b_rows_fetched,
                              want.stats.b_rows_fetched);
                    EXPECT_EQ(got->a_rows_fetched,
                              want.stats.a_rows_fetched);
                }
                EXPECT_EQ(outputs, want.outputs);
                if (::testing::Test::HasFailure())
                    return;
            }
        }
    }
}

std::string
kindLanesName(
    const ::testing::TestParamInfo<std::tuple<InterconnectKind, int>> &info)
{
    static const char *const kNames[] = {"DenseOnly", "LookaheadOnly",
                                         "Paper", "Crossbar"};
    return std::string(kNames[(int)std::get<0>(info.param)]) + "_" +
           std::to_string(std::get<1>(info.param)) + "lanes";
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndLanes, TileVsReference,
    ::testing::Combine(::testing::Values(InterconnectKind::DenseOnly,
                                         InterconnectKind::LookaheadOnly,
                                         InterconnectKind::Paper,
                                         InterconnectKind::Crossbar),
                       ::testing::Values(1, 3, 4, 5, 12, 16, 32)),
    kindLanesName);

} // namespace
} // namespace tensordash
