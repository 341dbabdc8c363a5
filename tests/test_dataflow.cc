/**
 * @file
 * Tests for the dataflow lowering (paper section 2 / Table 1 mapped
 * onto tiles).  The gold standard: exhaustive functional lowering run
 * through tiles must reproduce the reference convolutions exactly for
 * all three training operations, across strides and paddings.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "sim/accelerator.hh"
#include "sim/dataflow.hh"
#include "sim/tile.hh"
#include "tensor/conv_ref.hh"

namespace tensordash {
namespace {

DataflowConfig
funcConfig()
{
    DataflowConfig cfg;
    cfg.with_values = true;
    cfg.max_sampled_macs = 0; // exhaustive
    return cfg;
}

/** Run a lowered op through a tile and scatter into a tensor. */
Tensor
executeLowered(const LoweredOp &lowered, const TileConfig &tcfg)
{
    Tile tile(tcfg);
    Tensor out(lowered.out_shape);
    TileStats stats;
    std::vector<std::vector<double>> outputs;
    for (size_t j = 0; j < lowered.jobs.size(); ++j) {
        tile.run(lowered.jobs[j], stats, &outputs);
        Dataflow::scatter(lowered, j, outputs, out);
    }
    return out;
}

/** Parameterised functional equivalence across geometries. */
class DataflowFunctional : public ::testing::TestWithParam<
    std::tuple<int, int, int, int, int, int, int>>
{
    // (N, C, F, H, K, stride, pad)
};

TEST_P(DataflowFunctional, ForwardMatchesReference)
{
    auto [n, c, f, h, k, stride, pad] = GetParam();
    Rng rng(11);
    Tensor acts(n, c, h, h);
    acts.fillSmallInt(rng, 3);
    acts.dropout(rng, 0.4f);
    Tensor weights(f, c, k, k);
    weights.fillSmallInt(rng, 3);
    ConvSpec spec{stride, pad};

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerForward(acts, weights, spec);
    EXPECT_TRUE(lowered.exhaustive());
    Tensor got = executeLowered(lowered, TileConfig{});
    Tensor want = conv2dForward(acts, weights, spec);
    EXPECT_EQ(got.shape(), want.shape());
    EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
}

TEST_P(DataflowFunctional, BackwardDataMatchesReference)
{
    auto [n, c, f, h, k, stride, pad] = GetParam();
    Rng rng(13);
    Tensor acts(n, c, h, h);
    Tensor weights(f, c, k, k);
    weights.fillSmallInt(rng, 3);
    ConvSpec spec{stride, pad};
    int oh = spec.outDim(h, k);
    Tensor go(n, f, oh, oh);
    go.fillSmallInt(rng, 3);
    go.dropout(rng, 0.5f);

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerBackwardData(go, weights, acts.shape(),
                                             spec);
    Tensor got = executeLowered(lowered, TileConfig{});
    Tensor want = conv2dBackwardData(go, weights, acts.shape(), spec);
    EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
}

TEST_P(DataflowFunctional, BackwardWeightsMatchesReference)
{
    auto [n, c, f, h, k, stride, pad] = GetParam();
    Rng rng(17);
    Tensor acts(n, c, h, h);
    acts.fillSmallInt(rng, 2);
    acts.dropout(rng, 0.3f);
    Tensor weights(f, c, k, k);
    ConvSpec spec{stride, pad};
    int oh = spec.outDim(h, k);
    Tensor go(n, f, oh, oh);
    go.fillSmallInt(rng, 2);
    go.dropout(rng, 0.6f);

    Dataflow df(funcConfig());
    for (WgSide side : {WgSide::Gradients, WgSide::Activations,
                        WgSide::Auto}) {
        LoweredOp lowered = df.lowerBackwardWeights(go, acts, k, k, spec,
                                                    side);
        Tensor got = executeLowered(lowered, TileConfig{});
        Tensor want = conv2dBackwardWeights(go, acts, k, k, spec);
        EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
    }
}

/** Nonzero mask of one value-mode stream row, derived from its values. */
uint32_t
valueMask(const BlockStream &s, int row)
{
    uint32_t mask = 0;
    for (int l = 0; l < s.lanes(); ++l)
        if (s.value(row, l) != 0.0f)
            mask |= 1u << l;
    return mask;
}

/**
 * Lower one op in value mode and in mask mode and check that the two
 * agree: same sampled grid cells, mask-mode B masks equal to the masks
 * of the value-mode streams, no A streams in mask mode and a column
 * count equal to the value-mode A stream count.  The value-mode result
 * must also match @p want, so the shared gather is checked both ways.
 */
template <class Lower>
void
expectMaskModeMatchesValues(const char *what, Lower lower,
                            const Tensor &want)
{
    SCOPED_TRACE(what);
    for (uint64_t cap : {uint64_t{0}, uint64_t{3000}}) {
        DataflowConfig vcfg = funcConfig();
        vcfg.max_sampled_macs = cap;
        DataflowConfig mcfg = vcfg;
        mcfg.with_values = false;
        LoweredOp v = lower(Dataflow(vcfg));
        LoweredOp m = lower(Dataflow(mcfg));
        if (cap == 0) {
            EXPECT_EQ(executeLowered(v, TileConfig{}).maxAbsDiff(want),
                      0.0f);
        }

        ASSERT_EQ(v.jobs.size(), m.jobs.size());
        EXPECT_EQ(v.job_cells, m.job_cells);
        EXPECT_EQ(v.steps, m.steps);
        EXPECT_EQ(v.b_nonzero_slots, m.b_nonzero_slots);
        EXPECT_EQ(v.b_total_slots, m.b_total_slots);
        for (size_t j = 0; j < v.jobs.size(); ++j) {
            const TileJob &vj = v.jobs[j];
            const TileJob &mj = m.jobs[j];
            EXPECT_TRUE(mj.a.empty()) << "job " << j;
            EXPECT_EQ((int)vj.a.size(), vj.cols) << "job " << j;
            EXPECT_EQ(mj.cols, (int)vj.a.size()) << "job " << j;
            ASSERT_EQ(vj.b.size(), mj.b.size()) << "job " << j;
            for (size_t r = 0; r < vj.b.size(); ++r) {
                ASSERT_EQ(mj.b[r].rows(), v.steps);
                ASSERT_FALSE(mj.b[r].hasValues());
                for (int step = 0; step < v.steps; ++step) {
                    uint32_t want_mask = valueMask(vj.b[r], step);
                    ASSERT_EQ(vj.b[r].nzMask(step), want_mask);
                    ASSERT_EQ(mj.b[r].nzMask(step), want_mask)
                        << "job " << j << " row " << r << " step " << step;
                }
            }
        }
    }
}

TEST_P(DataflowFunctional, MaskModeMatchesValueModeForEveryLowering)
{
    auto [n, c, f, h, k, stride, pad] = GetParam();
    Rng rng(47);
    ConvSpec spec{stride, pad};
    int oh = spec.outDim(h, k);
    Tensor acts(n, c, h, h);
    acts.fillSmallInt(rng, 3);
    acts.dropout(rng, 0.4f);
    Tensor weights(f, c, k, k);
    weights.fillSmallInt(rng, 3);
    weights.dropout(rng, 0.3f);
    Tensor go(n, f, oh, oh);
    go.fillSmallInt(rng, 3);
    go.dropout(rng, 0.5f);

    Tensor fwd = conv2dForward(acts, weights, spec);
    for (FwdSide side :
         {FwdSide::Activations, FwdSide::Weights, FwdSide::Auto}) {
        expectMaskModeMatchesValues(
            "conv forward",
            [&](const Dataflow &df) {
                return df.lowerForward(acts, weights, spec, side);
            },
            fwd);
    }
    Tensor bwd = conv2dBackwardData(go, weights, acts.shape(), spec);
    for (BwdDataSide side : {BwdDataSide::Gradients, BwdDataSide::Weights,
                             BwdDataSide::Auto}) {
        expectMaskModeMatchesValues(
            "conv backward-data",
            [&](const Dataflow &df) {
                return df.lowerBackwardData(go, weights, acts.shape(),
                                            spec, side);
            },
            bwd);
    }
    Tensor wg = conv2dBackwardWeights(go, acts, k, k, spec);
    for (WgSide side :
         {WgSide::Gradients, WgSide::Activations, WgSide::Auto}) {
        expectMaskModeMatchesValues(
            "conv backward-weights",
            [&](const Dataflow &df) {
                return df.lowerBackwardWeights(go, acts, k, k, spec, side);
            },
            wg);
    }

    // Matmul operands from the same geometry: batch n*h, in_c = c,
    // out_c = f, so neither extent tiles the 4x4 grid exactly.
    Tensor fa(n * h, c, 1, 1);
    fa.fillSmallInt(rng, 3);
    fa.dropout(rng, 0.4f);
    Tensor fw(f, c, 1, 1);
    fw.fillSmallInt(rng, 3);
    fw.dropout(rng, 0.3f);
    Tensor fg(n * h, f, 1, 1);
    fg.fillSmallInt(rng, 3);
    fg.dropout(rng, 0.5f);

    Tensor ffwd = fcForward(fa, fw);
    for (FwdSide side :
         {FwdSide::Activations, FwdSide::Weights, FwdSide::Auto}) {
        expectMaskModeMatchesValues(
            "fc forward",
            [&](const Dataflow &df) {
                return df.lowerFcForward(fa, fw, side);
            },
            ffwd);
    }
    Tensor fbwd = fcBackwardData(fg, fw);
    for (BwdDataSide side : {BwdDataSide::Gradients, BwdDataSide::Weights,
                             BwdDataSide::Auto}) {
        expectMaskModeMatchesValues(
            "fc backward-data",
            [&](const Dataflow &df) {
                return df.lowerFcBackwardData(fg, fw, fa.shape(), side);
            },
            fbwd);
    }
    Tensor fwg = fcBackwardWeights(fg, fa);
    for (WgSide side :
         {WgSide::Gradients, WgSide::Activations, WgSide::Auto}) {
        expectMaskModeMatchesValues(
            "fc backward-weights",
            [&](const Dataflow &df) {
                return df.lowerFcBackwardWeights(fg, fa, side);
            },
            fwg);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, DataflowFunctional,
    ::testing::Values(
        std::make_tuple(1, 3, 2, 6, 3, 1, 1),
        std::make_tuple(2, 4, 4, 6, 3, 1, 0),
        std::make_tuple(1, 2, 3, 8, 3, 2, 1),
        std::make_tuple(2, 17, 5, 5, 3, 1, 1),  // channels > lanes
        std::make_tuple(1, 1, 1, 7, 1, 1, 0),   // 1x1 kernel
        std::make_tuple(1, 5, 2, 9, 5, 2, 2),
        std::make_tuple(2, 33, 3, 4, 2, 2, 0),
        std::make_tuple(1, 4, 2, 7, 2, 2, 0)));  // does not tile exactly

TEST(Dataflow, FcLayerLowersAsConv)
{
    // Fully connected = conv with 1x1 spatial (paper section 2.1).
    Rng rng(19);
    Tensor acts(4, 40, 1, 1);
    acts.fillSmallInt(rng, 3);
    acts.dropout(rng, 0.5f);
    Tensor weights(24, 40, 1, 1);
    weights.fillSmallInt(rng, 3);

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 0});
    Tensor got = executeLowered(lowered, TileConfig{});
    Tensor want = fcForward(acts, weights);
    EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
}

TEST(Dataflow, StepsCoverReductionWithPadding)
{
    Rng rng(23);
    // 20 channels: lane rows straddle (ky, kx) tap boundaries, so the
    // step count comes from the flattened reduction, not the taps.
    Tensor acts(1, 20, 6, 6);
    acts.fillSmallInt(rng, 2);
    Tensor weights(2, 20, 3, 3);
    weights.fillSmallInt(rng, 2);
    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 1});
    // reduction = 20*9 = 180 -> ceil(180/16) = 12 steps.
    EXPECT_EQ(lowered.steps, 12);
    for (const auto &job : lowered.jobs)
        for (const auto &s : job.b)
            EXPECT_EQ(s.rows(), 12);
}

TEST(Dataflow, TotalMacSlotsAccounting)
{
    Tensor acts(1, 16, 4, 4);
    Tensor weights(8, 16, 1, 1);
    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 0});
    // windows = 16, filters = 8, steps = 1, lanes = 16.
    EXPECT_EQ(lowered.total_mac_slots, 16u * 8u * 1u * 16u);
    EXPECT_EQ(lowered.total_jobs, 4u * 2u);
    EXPECT_TRUE(lowered.exhaustive());
}

TEST(Dataflow, SamplingCapsWorkAndSetsWeights)
{
    Rng rng(29);
    Tensor acts(2, 32, 12, 12);
    acts.fillNormal(rng);
    Tensor weights(16, 32, 3, 3);
    weights.fillNormal(rng);

    DataflowConfig cfg;
    cfg.max_sampled_macs = 100000;
    Dataflow df(cfg);
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 1});
    EXPECT_LT(lowered.sampled_jobs, lowered.total_jobs);
    EXPECT_GT(lowered.sampled_jobs, 0u);
    uint64_t macs_per_job = (uint64_t)lowered.steps * 16 * 4 * 4;
    EXPECT_LE(lowered.sampled_jobs * macs_per_job, 100000u + macs_per_job);
    for (const auto &job : lowered.jobs)
        EXPECT_NEAR(job.weight,
                    (double)lowered.total_jobs / lowered.sampled_jobs,
                    1e-9);
}

TEST(Dataflow, SamplingPreservesSparsityEstimate)
{
    // The sampled B-side sparsity must track the tensor's sparsity.
    Rng rng(31);
    Tensor acts(2, 64, 12, 12);
    acts.fill(1.0f);
    acts.dropout(rng, 0.55f);
    Tensor weights(16, 64, 3, 3);
    weights.fill(1.0f);

    DataflowConfig cfg;
    cfg.max_sampled_macs = 400000;
    Dataflow df(cfg);
    LoweredOp lowered = df.lowerForward(acts, weights, ConvSpec{1, 1});
    double sampled_density =
        (double)lowered.b_nonzero_slots / (double)lowered.b_total_slots;
    // Window gathers include boundary-padding zeros (~11% of taps for
    // 3x3/pad-1 on 12x12), so density sits just below
    // (1 - 0.55) * 0.89 ~= 0.40.
    EXPECT_NEAR(sampled_density, 0.45 * 0.89, 0.04);
}

TEST(Dataflow, BackwardWeightsAutoPicksSparserTensor)
{
    Rng rng(37);
    Tensor acts(1, 8, 8, 8);
    acts.fill(1.0f); // dense activations
    Tensor go(1, 4, 6, 6);
    go.fill(1.0f);
    go.dropout(rng, 0.9f); // very sparse gradients

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerBackwardWeights(go, acts, 3, 3,
                                                ConvSpec{1, 0},
                                                WgSide::Auto);
    EXPECT_TRUE(lowered.wg_b_is_gradients);

    // Flip the sparsity: activations much sparser.
    Tensor acts2(1, 8, 8, 8);
    acts2.fill(1.0f);
    acts2.dropout(rng, 0.9f);
    Tensor go2(1, 4, 6, 6);
    go2.fill(1.0f);
    LoweredOp lowered2 = df.lowerBackwardWeights(go2, acts2, 3, 3,
                                                 ConvSpec{1, 0},
                                                 WgSide::Auto);
    EXPECT_FALSE(lowered2.wg_b_is_gradients);
}

TEST(Dataflow, DilationZerosAppearForStride2)
{
    // With stride 2, the dilated gradient windows of Eq. 6 contain
    // structural zeros; the lowered B streams must reflect them even
    // when GO itself is fully dense.
    Rng rng(41);
    Tensor acts(1, 2, 8, 8);
    Tensor weights(4, 2, 3, 3);
    weights.fillSmallInt(rng, 2);
    ConvSpec spec{2, 1};
    int oh = spec.outDim(8, 3);
    Tensor go(1, 4, oh, oh);
    go.fill(1.0f); // dense

    Dataflow df(funcConfig());
    LoweredOp lowered = df.lowerBackwardData(go, weights, acts.shape(),
                                             spec);
    double density =
        (double)lowered.b_nonzero_slots / (double)lowered.b_total_slots;
    EXPECT_LT(density, 0.6); // dilation holes dominate
    EXPECT_GT(density, 0.05);
}

TEST(Dataflow, TrainOpNames)
{
    EXPECT_STREQ(trainOpName(TrainOp::Forward), "AxW");
    EXPECT_STREQ(trainOpName(TrainOp::BackwardData), "AxG");
    EXPECT_STREQ(trainOpName(TrainOp::BackwardWeights), "WxG");
}

TEST(Dataflow, AcceleratorFunctionalPath)
{
    // End-to-end through Accelerator::runFunctional.
    Rng rng(43);
    Tensor acts(1, 6, 6, 6);
    acts.fillSmallInt(rng, 2);
    acts.dropout(rng, 0.5f);
    Tensor weights(4, 6, 3, 3);
    weights.fillSmallInt(rng, 2);
    ConvSpec spec{1, 1};

    AcceleratorConfig cfg;
    cfg.max_sampled_macs = 0;
    Accelerator accel(cfg);
    Dataflow df(cfg.dataflow(true));
    Tensor got = accel.runFunctional(df.lowerForward(acts, weights,
                                                     spec));
    Tensor want = conv2dForward(acts, weights, spec);
    EXPECT_EQ(got.maxAbsDiff(want), 0.0f);
}

} // namespace
} // namespace tensordash
