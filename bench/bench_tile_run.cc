/**
 * @file
 * Google-benchmark microbenchmark of Tile::run, the engine's hot
 * kernel: the per-cycle sparse window walk (scheduler calls, pick
 * application, AS advance) over a full 4x4 tile.  The sparsity x
 * staging-depth grid covers the kernel's distinct regimes — dense
 * streams (every window full, scheduler fast path), mid sparsity
 * (mixed windows, most picks applied) and high sparsity (windows
 * drain fast, the window slides in big strides and the pick-gate
 * skips most lane walks).
 */

#include "bench_util.hh"

#if TENSORDASH_HAVE_BENCHMARK

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "sim/tile.hh"

using namespace tensordash;

namespace {

constexpr int kSteps = 256;

TileJob
randomJob(const TileConfig &cfg, double sparsity, uint64_t seed)
{
    Rng rng(seed);
    TileJob job;
    for (int r = 0; r < cfg.rows; ++r) {
        BlockStream s(cfg.lanes, false);
        for (int i = 0; i < kSteps; ++i) {
            uint32_t mask = 0;
            for (int l = 0; l < cfg.lanes; ++l)
                if (!rng.bernoulli((float)sparsity))
                    mask |= 1u << l;
            s.appendMaskRow(mask);
        }
        job.b.push_back(s);
    }
    // Timing-only: the schedule reads B masks alone, so no A streams.
    job.cols = cfg.cols;
    return job;
}

void
BM_TileRun(benchmark::State &state)
{
    TileConfig cfg;
    cfg.depth = (int)state.range(1);
    Tile tile(cfg);
    TileJob job = randomJob(cfg, state.range(0) / 100.0,
                            42 + (uint64_t)state.range(0));
    for (auto _ : state) {
        TileStats stats;
        benchmark::DoNotOptimize(tile.run(job, stats));
    }
    // One item = one dense step simulated across the whole tile.
    state.SetItemsProcessed(state.iterations() * kSteps);
}
BENCHMARK(BM_TileRun)
    ->ArgNames({"sparsity", "depth"})
    ->Args({0, 2})
    ->Args({0, 4})
    ->Args({0, 8})
    ->Args({50, 2})
    ->Args({50, 4})
    ->Args({50, 8})
    ->Args({90, 2})
    ->Args({90, 4})
    ->Args({90, 8});

} // namespace

BENCHMARK_MAIN();

#else // !TENSORDASH_HAVE_BENCHMARK

int
main()
{
    return tensordash::bench::benchmarkUnavailable("bench_tile_run");
}

#endif // TENSORDASH_HAVE_BENCHMARK
