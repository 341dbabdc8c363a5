/**
 * @file
 * Google-benchmark microbenchmarks of the synthesis/measure kernels:
 * the counter-stream fills ModelZoo::synthesize runs (dense values,
 * mask-first clustered maps, mask-first pruning) next to the serial
 * mt19937_64 normal fill (against the std::normal_distribution
 * reference) that src/nn and fig20 still use, dropout, the in-place
 * apply* masks, magnitude pruning, per-map density measurement,
 * nonzero counting, and one end-to-end layer synthesis.  These are
 * the per-key cost the SynthCache amortises across geometry variants.
 *
 * Mutating kernels copy a pristine tensor per iteration so every
 * iteration sees the same input; BM_TensorCopy is that baseline.
 * Every benchmark reports elements per second.
 */

#include "bench_util.hh"

#if TENSORDASH_HAVE_BENCHMARK

#include <benchmark/benchmark.h>

#include <random>

#include "common/rng.hh"
#include "models/model_zoo.hh"
#include "sparsity/generator.hh"
#include "tensor/tensor.hh"

using namespace tensordash;

namespace {

/** Mid-suite activation extent (a VGG/ResNet conv3-size map). */
Tensor
actsTensor()
{
    Tensor t(2, 64, 56, 56);
    Rng rng(42);
    t.fillNormal(rng, 0.0f, 1.0f);
    return t;
}

/** Conv weight extent matching the activation above. */
Tensor
weightsTensor()
{
    Tensor t(128, 64, 3, 3);
    Rng rng(43);
    t.fillNormal(rng, 0.0f, 1.0f);
    return t;
}

void
BM_TensorCopy(benchmark::State &state)
{
    Tensor pristine = actsTensor();
    for (auto _ : state) {
        Tensor t = pristine;
        benchmark::DoNotOptimize(t.data());
    }
    state.SetItemsProcessed(state.iterations() * pristine.size());
}
BENCHMARK(BM_TensorCopy);

void
BM_FillNormal(benchmark::State &state)
{
    Tensor t = actsTensor();
    Rng rng(50);
    for (auto _ : state) {
        t.fillNormal(rng, 0.0f, 1.0f);
        benchmark::DoNotOptimize(t.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_FillNormal);

/** The same fill through a fresh std::normal_distribution<float> per
 * element over std::mt19937_64 — the bit-identical stream the Rng
 * reproduces, as the A/B reference for BM_FillNormal. */
void
BM_FillNormalStdRef(benchmark::State &state)
{
    Tensor t = actsTensor();
    std::mt19937_64 engine(50);
    for (auto _ : state) {
        for (size_t i = 0; i < t.size(); ++i) {
            std::normal_distribution<float> d(0.0f, 1.0f);
            t[i] = d(engine);
        }
        benchmark::DoNotOptimize(t.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_FillNormalStdRef);

void
BM_CounterFill(benchmark::State &state)
{
    Tensor t = actsTensor();
    const CounterStream stream(50, 0);
    for (auto _ : state) {
        fillCounterValues(t, stream, 1.0f);
        benchmark::DoNotOptimize(t.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_CounterFill);

void
BM_SynthesizeClustered(benchmark::State &state)
{
    Tensor t = actsTensor();
    ClusterParams params;
    params.sparsity = state.range(0) / 100.0;
    params.strength = 0.5;
    Rng rng(45);
    const CounterStream stream(45, 0);
    for (auto _ : state) {
        synthesizeClustered(t, params, stream, 1.0f, rng);
        benchmark::DoNotOptimize(t.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_SynthesizeClustered)->Arg(50)->Arg(90);

void
BM_SynthesizePruned(benchmark::State &state)
{
    Tensor t = weightsTensor();
    double sparsity = state.range(0) / 100.0;
    Rng rng(46);
    const CounterStream stream(46, 1);
    for (auto _ : state) {
        synthesizePruned(t, sparsity, 0.5, stream, 0.5f, rng);
        benchmark::DoNotOptimize(t.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_SynthesizePruned)->Arg(80);

void
BM_Dropout(benchmark::State &state)
{
    Tensor pristine = actsTensor();
    float p = (float)(state.range(0) / 100.0);
    Rng rng(44);
    for (auto _ : state) {
        Tensor t = pristine;
        t.dropout(rng, p);
        benchmark::DoNotOptimize(t.data());
    }
    state.SetItemsProcessed(state.iterations() * pristine.size());
}
BENCHMARK(BM_Dropout)->Arg(50)->Arg(90);

void
BM_ClusteredSparsity(benchmark::State &state)
{
    Tensor pristine = actsTensor();
    ClusterParams params;
    params.sparsity = state.range(0) / 100.0;
    params.strength = 0.5;
    Rng rng(45);
    for (auto _ : state) {
        Tensor t = pristine;
        applyClusteredSparsity(t, params, rng);
        benchmark::DoNotOptimize(t.data());
    }
    state.SetItemsProcessed(state.iterations() * pristine.size());
}
BENCHMARK(BM_ClusteredSparsity)->Arg(50)->Arg(90);

void
BM_MagnitudePruning(benchmark::State &state)
{
    Tensor pristine = weightsTensor();
    double sparsity = state.range(0) / 100.0;
    for (auto _ : state) {
        Tensor t = pristine;
        applyMagnitudePruning(t, sparsity);
        benchmark::DoNotOptimize(t.data());
    }
    state.SetItemsProcessed(state.iterations() * pristine.size());
}
BENCHMARK(BM_MagnitudePruning)->Arg(80);

void
BM_ClusteredPruning(benchmark::State &state)
{
    Tensor pristine = weightsTensor();
    double sparsity = state.range(0) / 100.0;
    Rng rng(46);
    for (auto _ : state) {
        Tensor t = pristine;
        applyClusteredPruning(t, sparsity, 0.5, rng);
        benchmark::DoNotOptimize(t.data());
    }
    state.SetItemsProcessed(state.iterations() * pristine.size());
}
BENCHMARK(BM_ClusteredPruning)->Arg(80);

void
BM_PerMapDensities(benchmark::State &state)
{
    Tensor t = actsTensor();
    Rng rng(47);
    t.dropout(rng, 0.6f);
    for (auto _ : state)
        benchmark::DoNotOptimize(perMapDensities(t));
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_PerMapDensities);

void
BM_Nonzeros(benchmark::State &state)
{
    Tensor t = actsTensor();
    Rng rng(48);
    t.dropout(rng, 0.6f);
    for (auto _ : state)
        benchmark::DoNotOptimize(t.nonzeros());
    state.SetItemsProcessed(state.iterations() * t.size());
}
BENCHMARK(BM_Nonzeros);

void
BM_SynthesizeLayer(benchmark::State &state)
{
    // The largest ResNet50-era cell the suite synthesizes repeatedly:
    // clustered acts/grads plus clustered-pruned weights.
    ModelProfile model = ModelZoo::byName("resnet50_SM90");
    const LayerSpec &layer = model.layers[model.layers.size() / 2];
    Rng rng(49);
    size_t elements = 0;
    for (auto _ : state) {
        Rng layer_rng = rng; // same stream every iteration
        LayerTensors t =
            ModelZoo::synthesize(model, layer, 0.5, layer_rng);
        elements = t.acts.size() + t.weights.size() + t.grads.size();
        benchmark::DoNotOptimize(t);
    }
    state.SetItemsProcessed(state.iterations() * elements);
}
BENCHMARK(BM_SynthesizeLayer);

} // namespace

BENCHMARK_MAIN();

#else // !TENSORDASH_HAVE_BENCHMARK

int
main()
{
    return tensordash::bench::benchmarkUnavailable("bench_synth_micro");
}

#endif // TENSORDASH_HAVE_BENCHMARK
