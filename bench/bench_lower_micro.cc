/**
 * @file
 * Google-benchmark microbenchmark of the dataflow lowering: one
 * ResNet-sized 3x3 conv layer (128 -> 128 channels on 28x28 maps,
 * batch 2, stride 1, pad 1) lowered into mask-mode tile jobs for each
 * of the three training ops, at 0/50/90% operand sparsity and the
 * figures' 600k-MAC sampling budget.  This is the per-cell gather cost
 * a sweep pays before any tile runs: stream building for the sampled
 * jobs' B rows, with no A streams in timing mode.
 */

#include "bench_util.hh"

#if TENSORDASH_HAVE_BENCHMARK

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "sim/dataflow.hh"
#include "tensor/tensor.hh"

using namespace tensordash;

namespace {

constexpr int kBatch = 2;
constexpr int kChannels = 128;
constexpr int kFilters = 128;
constexpr int kMap = 28;
constexpr int kKernel = 3;
constexpr uint64_t kSampledMacs = 600000;

Tensor
sparseTensor(int n, int c, int h, int w, double sparsity, uint64_t seed)
{
    Tensor t(n, c, h, w);
    Rng rng(seed);
    t.fillNormal(rng);
    t.dropout(rng, (float)sparsity);
    return t;
}

void
BM_Lower(benchmark::State &state)
{
    auto op = (TrainOp)state.range(0);
    double sparsity = state.range(1) / 100.0;
    ConvSpec spec{1, 1};
    int out = spec.outDim(kMap, kKernel);
    Tensor acts = sparseTensor(kBatch, kChannels, kMap, kMap, sparsity, 1);
    Tensor weights =
        sparseTensor(kFilters, kChannels, kKernel, kKernel, sparsity, 2);
    Tensor grads = sparseTensor(kBatch, kFilters, out, out, sparsity, 3);

    DataflowConfig cfg;
    cfg.max_sampled_macs = kSampledMacs;
    Dataflow df(cfg);
    uint64_t slots = 0;
    for (auto _ : state) {
        LoweredOp lowered;
        switch (op) {
          case TrainOp::Forward:
            lowered = df.lowerForward(acts, weights, spec);
            break;
          case TrainOp::BackwardData:
            lowered = df.lowerBackwardData(grads, weights, acts.shape(),
                                           spec);
            break;
          case TrainOp::BackwardWeights:
            lowered = df.lowerBackwardWeights(grads, acts, kKernel,
                                              kKernel, spec);
            break;
        }
        slots = lowered.b_total_slots;
        benchmark::DoNotOptimize(lowered.jobs.data());
    }
    // One item = one gathered B operand slot.
    state.SetItemsProcessed(state.iterations() * (int64_t)slots);
    state.SetLabel(trainOpName(op));
}
BENCHMARK(BM_Lower)
    ->ArgNames({"op", "sparsity"})
    ->ArgsProduct({{(int)TrainOp::Forward, (int)TrainOp::BackwardData,
                    (int)TrainOp::BackwardWeights},
                   {0, 50, 90}})
    ->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();

#else // !TENSORDASH_HAVE_BENCHMARK

int
main()
{
    return tensordash::bench::benchmarkUnavailable("bench_lower_micro");
}

#endif // TENSORDASH_HAVE_BENCHMARK
