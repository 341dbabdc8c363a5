/**
 * @file
 * Cross-module integration and property tests.
 *
 * These exercise whole pipelines: PE vs tile equivalence, a full
 * training step of one layer computed end to end through the
 * accelerator and checked against the reference convolutions, side
 * policies, invariants under randomised configurations, and failure
 * injection on invalid configurations.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/tensordash.hh"
#include "sim/backside.hh"
#include "sim/prescheduler.hh"

namespace tensordash {
namespace {

BlockStream
randomStream(Rng &rng, int lanes, int rows, double sparsity)
{
    BlockStream s(lanes, false);
    for (int r = 0; r < rows; ++r) {
        uint32_t mask = 0;
        for (int l = 0; l < lanes; ++l)
            if (!rng.bernoulli((float)sparsity))
                mask |= 1u << l;
        s.appendMaskRow(mask);
    }
    return s;
}

TEST(Integration, SinglePeEqualsOneByOneTile)
{
    // A 1x1 tile in B-side mode must take exactly the cycles of a
    // standalone PE in B-side mode on the same streams.
    Rng rng(1);
    for (int trial = 0; trial < 10; ++trial) {
        double sp = trial / 10.0;
        BlockStream b = randomStream(rng, 16, 50, sp);
        BlockStream a = randomStream(rng, 16, 50, 0.0);

        PeConfig pe_cfg;
        pe_cfg.side = SparsitySide::BSide;
        TensorDashPe pe(pe_cfg);
        PeStats pe_stats;
        uint64_t pe_cycles = pe.run(a, b, pe_stats);

        TileConfig tile_cfg{.rows = 1, .cols = 1};
        Tile tile(tile_cfg);
        TileJob job;
        job.b.push_back(b);
        job.a.push_back(a);
        job.cols = 1;
        TileStats tile_stats;
        uint64_t tile_cycles = tile.run(job, tile_stats);

        EXPECT_EQ(pe_cycles, tile_cycles) << "sparsity " << sp;
    }
}

/** One full training step of one layer, exhaustively, functionally. */
class TrainingStepFunctional : public ::testing::TestWithParam<
    std::tuple<int, int, int>>
{
    // (stride, pad, seed)
};

TEST_P(TrainingStepFunctional, AllThreeOpsMatchReference)
{
    auto [stride, pad, seed] = GetParam();
    Rng rng((uint64_t)seed);
    int h = 9, c = 5, f = 6, k = 3, n = 2;
    ConvSpec spec{stride, pad};

    Tensor acts(n, c, h, h);
    acts.fillSmallInt(rng, 2);
    acts.dropout(rng, 0.5f);
    Tensor weights(f, c, k, k);
    weights.fillSmallInt(rng, 2);
    weights.dropout(rng, 0.3f);
    int oh = spec.outDim(h, k);
    Tensor go(n, f, oh, oh);
    go.fillSmallInt(rng, 2);
    go.dropout(rng, 0.6f);

    AcceleratorConfig cfg;
    cfg.max_sampled_macs = 0;
    Accelerator accel(cfg);
    Dataflow df(cfg.dataflow(true));

    Tensor o = accel.runFunctional(df.lowerForward(acts, weights, spec));
    EXPECT_EQ(o.maxAbsDiff(conv2dForward(acts, weights, spec)), 0.0f);

    Tensor ga = accel.runFunctional(
        df.lowerBackwardData(go, weights, acts.shape(), spec));
    EXPECT_EQ(ga.maxAbsDiff(
                  conv2dBackwardData(go, weights, acts.shape(), spec)),
              0.0f);

    Tensor gw = accel.runFunctional(
        df.lowerBackwardWeights(go, acts, k, k, spec));
    EXPECT_EQ(gw.maxAbsDiff(conv2dBackwardWeights(go, acts, k, k, spec)),
              0.0f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometry, TrainingStepFunctional,
    ::testing::Combine(::testing::Values(1, 2),
                       ::testing::Values(0, 1),
                       ::testing::Values(1, 2)));

TEST(Integration, FlippedSidesProduceIdenticalResults)
{
    // Side policies change the schedule, never the math.
    Rng rng(3);
    Tensor acts(1, 6, 6, 6);
    acts.fillSmallInt(rng, 2);
    Tensor weights(4, 6, 3, 3);
    weights.fillSmallInt(rng, 2);
    weights.dropout(rng, 0.8f);
    ConvSpec spec{1, 1};

    AcceleratorConfig cfg;
    cfg.max_sampled_macs = 0;
    Accelerator accel(cfg);
    Dataflow df(cfg.dataflow(true));

    Tensor via_acts = accel.runFunctional(
        df.lowerForward(acts, weights, spec, FwdSide::Activations));
    Tensor via_weights = accel.runFunctional(
        df.lowerForward(acts, weights, spec, FwdSide::Weights));
    EXPECT_EQ(via_acts.maxAbsDiff(via_weights), 0.0f);

    int oh = spec.outDim(6, 3);
    Tensor go(1, 4, oh, oh);
    go.fillSmallInt(rng, 2);
    Tensor ga_g = accel.runFunctional(df.lowerBackwardData(
        go, weights, acts.shape(), spec, BwdDataSide::Gradients));
    Tensor ga_w = accel.runFunctional(df.lowerBackwardData(
        go, weights, acts.shape(), spec, BwdDataSide::Weights));
    EXPECT_EQ(ga_g.maxAbsDiff(ga_w), 0.0f);
}

TEST(Integration, AutoSideExploitsPrunedWeightsInForward)
{
    Rng rng(4);
    Tensor acts(2, 32, 10, 10);
    acts.fillNormal(rng); // dense activations
    Tensor weights(32, 32, 3, 3);
    weights.fillNormal(rng);
    applyMagnitudePruning(weights, 0.9);
    Tensor go(2, 32, 10, 10);
    go.fillNormal(rng);

    AcceleratorConfig fixed;
    fixed.tiles = 2;
    fixed.max_sampled_macs = 200000;
    // Compares compute speedups; memory stalls would dilute both.
    fixed.memory_model = MemoryModel::Analytic;
    AcceleratorConfig autos = fixed;
    autos.fwd_side = FwdSide::Auto;
    Accelerator a_fixed(fixed), a_auto(autos);
    ConvSpec spec{1, 1};
    OpResult r_fixed = a_fixed.runConvOp(TrainOp::Forward, acts,
                                         weights, go, spec);
    OpResult r_auto = a_auto.runConvOp(TrainOp::Forward, acts, weights,
                                       go, spec);
    EXPECT_LT(r_fixed.speedup(), 1.1);
    EXPECT_GT(r_auto.speedup(), 1.8);
}

/** Randomised configuration invariants. */
class ConfigInvariants : public ::testing::TestWithParam<int>
{
};

TEST_P(ConfigInvariants, SpeedupBoundsHoldEverywhere)
{
    // Runs under the default Pipelined memory model on purpose: the
    // speedup bounds must survive memory stalls too (stalls cap both
    // the baseline and TensorDash at the same DRAM time, so they can
    // only pull the ratio towards 1, never outside [1, depth]).
    int seed = GetParam();
    Rng rng((uint64_t)seed * 7919);
    AcceleratorConfig cfg;
    cfg.tiles = rng.uniformInt(1, 4);
    cfg.tile.rows = 1 << rng.uniformInt(0, 3);
    cfg.tile.cols = 1 << rng.uniformInt(0, 2);
    cfg.tile.depth = rng.uniformInt(2, 4);
    cfg.max_sampled_macs = 60000;
    Accelerator accel(cfg);

    Tensor acts(2, 24, 8, 8);
    acts.fillNormal(rng);
    applyClusteredSparsity(acts, {rng.uniform(0.0f, 0.9f), 0.7}, rng);
    Tensor weights(16, 24, 3, 3);
    weights.fillNormal(rng);
    Tensor go(2, 16, 8, 8);
    go.fillNormal(rng);
    applyClusteredSparsity(go, {rng.uniform(0.0f, 0.9f), 0.7}, rng);

    for (int op = 0; op < 3; ++op) {
        OpResult r = accel.runConvOp((TrainOp)op, acts, weights, go,
                                     ConvSpec{1, 1});
        EXPECT_GE(r.speedup(), 1.0 - 1e-9)
            << "op " << op << " cfg depth " << cfg.tile.depth;
        EXPECT_LE(r.speedup(), (double)cfg.tile.depth + 1e-9);
        EXPECT_LE(r.speedup(),
                  std::max(1.0, r.potentialSpeedup()) + 1e-9);
        EXPECT_GT(r.base_cycles, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigInvariants,
                         ::testing::Range(1, 13));

TEST(Integration, PrescheduleThenLowerMatchesDirectLowering)
{
    // Storing a tensor in scheduled form, decompressing it (Fig. 12),
    // and running the layer must equal running on the original tensor.
    Rng rng(5);
    Tensor acts(1, 32, 6, 6);
    acts.fillSmallInt(rng, 3);
    acts.dropout(rng, 0.6f);
    Tensor weights(8, 32, 1, 1);
    weights.fillSmallInt(rng, 3);

    // Round-trip the activations through the scheduled form, streaming
    // channel blocks per spatial position.
    MuxPattern pattern(16, 3);
    PreScheduler ps(pattern);
    Tensor restored(acts.shape());
    const Shape &s = acts.shape();
    for (int y = 0; y < s.h; ++y) {
        for (int x = 0; x < s.w; ++x) {
            BlockStream stream(16, true);
            for (int cr = 0; cr < s.c / 16; ++cr) {
                float row[16];
                for (int l = 0; l < 16; ++l)
                    row[l] = acts.at(0, cr * 16 + l, y, x);
                stream.appendValueRow(row);
            }
            BlockStream back = ps.decompress(ps.schedule(stream));
            for (int cr = 0; cr < s.c / 16; ++cr)
                for (int l = 0; l < 16; ++l)
                    restored.at(0, cr * 16 + l, y, x) =
                        back.value(cr, l);
        }
    }
    EXPECT_EQ(restored.maxAbsDiff(acts), 0.0f);

    AcceleratorConfig cfg;
    cfg.max_sampled_macs = 0;
    Accelerator accel(cfg);
    Dataflow df(cfg.dataflow(true));
    Tensor direct = accel.runFunctional(
        df.lowerForward(acts, weights, ConvSpec{1, 0}));
    Tensor roundtripped = accel.runFunctional(
        df.lowerForward(restored, weights, ConvSpec{1, 0}));
    EXPECT_EQ(direct.maxAbsDiff(roundtripped), 0.0f);
}

TEST(Integration, InvalidConfigurationsPanic)
{
    setLogThrowMode(true);
    // Lane masks are 32-bit.
    EXPECT_THROW(MuxPattern(64, 3), SimError);
    // Staging depth bounds.
    EXPECT_THROW(MuxPattern(16, 0), SimError);
    EXPECT_THROW(MuxPattern(16, 9), SimError);
    // Tiles must exist.
    AcceleratorConfig cfg;
    cfg.tiles = 0;
    EXPECT_THROW(Accelerator{cfg}, SimError);
    // Functional runs require exhaustive lowering.
    AcceleratorConfig sampled;
    sampled.max_sampled_macs = 1000;
    Accelerator accel(sampled);
    Rng rng(6);
    Tensor acts(2, 64, 12, 12);
    acts.fillNormal(rng);
    Tensor weights(32, 64, 3, 3);
    weights.fillNormal(rng);
    Dataflow df(sampled.dataflow(false));
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 1});
    if (!lowered.exhaustive()) {
        EXPECT_THROW(accel.runFunctional(lowered), SimError);
    }
    setLogThrowMode(false);
}

TEST(Integration, BacksideCompressionFeedsForwardPass)
{
    // Outputs packed by the backside scheduler during one layer can be
    // decompressed and used as the next layer's input unchanged.
    Rng rng(7);
    Tensor acts(1, 16, 4, 4);
    acts.fillSmallInt(rng, 2);
    Tensor weights(16, 16, 1, 1);
    weights.fillSmallInt(rng, 2);
    Tensor out = conv2dForward(acts, weights, ConvSpec{1, 0});
    // ReLU the outputs so there is something to compress.
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = std::max(out[i], 0.0f);

    MuxPattern pattern(16, 3);
    BacksideScheduler backside(pattern);
    PreScheduler front(pattern);
    Tensor restored(out.shape());
    const Shape &s = out.shape();
    for (int y = 0; y < s.h; ++y) {
        for (int x = 0; x < s.w; ++x) {
            BlockStream stream(16, true);
            float row[16];
            for (int l = 0; l < 16; ++l)
                row[l] = out.at(0, l, y, x);
            stream.appendValueRow(row);
            uint64_t cycles = 0;
            ScheduledStream packed = backside.schedule(stream, &cycles);
            BlockStream back = front.decompress(packed);
            for (int l = 0; l < 16; ++l)
                restored.at(0, l, y, x) = back.value(0, l);
        }
    }
    EXPECT_EQ(restored.maxAbsDiff(out), 0.0f);
}

TEST(Integration, EnergyMonotoneInSparsity)
{
    // More sparsity -> fewer TensorDash cycles -> less TD energy,
    // while baseline energy only shrinks via smaller DRAM transfers.
    Rng rng(8);
    AcceleratorConfig cfg;
    cfg.tiles = 2;
    cfg.max_sampled_macs = 150000;
    Accelerator accel(cfg);
    Tensor weights(16, 32, 3, 3);
    weights.fillNormal(rng);
    Tensor go(2, 16, 10, 10);
    go.fillNormal(rng);

    double prev_td = 1e99;
    for (double sp : {0.0, 0.4, 0.8}) {
        Tensor acts(2, 32, 10, 10);
        acts.fillNormal(rng);
        applyBernoulliSparsity(acts, sp, rng);
        OpResult r = accel.runConvOp(TrainOp::Forward, acts, weights,
                                     go, ConvSpec{1, 1}, sp);
        double td = accel.energy(r, true).total();
        EXPECT_LT(td, prev_td) << "sparsity " << sp;
        prev_td = td;
    }
}

} // namespace
} // namespace tensordash
