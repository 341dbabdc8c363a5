/**
 * @file
 * Google-benchmark microbenchmark of Tile::run, the engine's hot
 * kernel: the per-cycle window walk (one bit-sliced scheduler pass per
 * packed word of rows, the slowest-row advance) over a full 4x4 tile.
 * The sparsity x staging-depth grid covers the kernel's distinct
 * regimes — dense streams (every window full, the scheduler's dense
 * path), mid sparsity (mixed windows, most levels decide something)
 * and high sparsity (windows drain fast and slide in big strides).
 * BM_TileRunInterconnect runs the ablation's other movement patterns
 * at the paper's depth, and BM_TileRunOutputs the functional mode that
 * also multiplies every picked pair into its PE accumulators.
 */

#include "bench_util.hh"

#if TENSORDASH_HAVE_BENCHMARK

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "sim/tile.hh"

using namespace tensordash;

namespace {

constexpr int kSteps = 256;

BlockStream
randomStream(Rng &rng, int lanes, double sparsity, bool with_values)
{
    BlockStream s(lanes, with_values);
    std::vector<float> row((size_t)lanes);
    for (int i = 0; i < kSteps; ++i) {
        uint32_t mask = 0;
        for (int l = 0; l < lanes; ++l) {
            const bool nonzero = !rng.bernoulli((float)sparsity);
            row[(size_t)l] = nonzero ? 1.0f + (float)(l % 3) : 0.0f;
            if (nonzero)
                mask |= 1u << l;
        }
        if (with_values)
            s.appendValueRow(row.data());
        else
            s.appendMaskRow(mask);
    }
    return s;
}

/** Timing-only jobs carry B masks alone (the schedule reads nothing
 * else); functional jobs carry value-mode B and A streams. */
TileJob
randomJob(const TileConfig &cfg, double sparsity, uint64_t seed,
          bool with_values = false)
{
    Rng rng(seed);
    TileJob job;
    for (int r = 0; r < cfg.rows; ++r)
        job.b.push_back(randomStream(rng, cfg.lanes, sparsity,
                                     with_values));
    if (with_values)
        for (int c = 0; c < cfg.cols; ++c)
            job.a.push_back(randomStream(rng, cfg.lanes, 0.0, true));
    job.cols = cfg.cols;
    return job;
}

void
runTile(benchmark::State &state, const TileConfig &cfg, int sparsity,
        bool outputs)
{
    Tile tile(cfg);
    TileJob job = randomJob(cfg, sparsity / 100.0,
                            42 + (uint64_t)sparsity, outputs);
    std::vector<std::vector<double>> acc;
    for (auto _ : state) {
        TileStats stats;
        benchmark::DoNotOptimize(
            tile.run(job, stats, outputs ? &acc : nullptr));
    }
    // One item = one dense step simulated across the whole tile.
    state.SetItemsProcessed(state.iterations() * kSteps);
}

void
BM_TileRun(benchmark::State &state)
{
    TileConfig cfg;
    cfg.depth = (int)state.range(1);
    runTile(state, cfg, (int)state.range(0), false);
}
BENCHMARK(BM_TileRun)
    ->ArgNames({"sparsity", "depth"})
    ->ArgsProduct({{0, 50, 90}, {2, 3, 4, 8}});

void
BM_TileRunInterconnect(benchmark::State &state)
{
    TileConfig cfg;
    cfg.interconnect = (InterconnectKind)state.range(1);
    runTile(state, cfg, (int)state.range(0), false);
}
BENCHMARK(BM_TileRunInterconnect)
    ->ArgNames({"sparsity", "kind"})
    ->ArgsProduct({{50, 90},
                   {(int64_t)InterconnectKind::LookaheadOnly,
                    (int64_t)InterconnectKind::Crossbar}});

void
BM_TileRunOutputs(benchmark::State &state)
{
    runTile(state, TileConfig{}, (int)state.range(0), true);
}
BENCHMARK(BM_TileRunOutputs)->ArgName("sparsity")->Arg(0)->Arg(50)->Arg(90);

} // namespace

BENCHMARK_MAIN();

#else // !TENSORDASH_HAVE_BENCHMARK

int
main()
{
    return tensordash::bench::benchmarkUnavailable("bench_tile_run");
}

#endif // TENSORDASH_HAVE_BENCHMARK
