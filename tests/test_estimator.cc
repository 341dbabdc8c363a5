/**
 * @file
 * Tests for the closed-form estimator tier: estimator-vs-exact error
 * bounds across the zoo under both memory models, estimate-tier
 * TaskKey isolation (estimates can never shadow exact results), the
 * batch-override axis, and bit-identity of the estimator-keyed claim
 * order at any thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/tensordash.hh"

namespace tensordash {
namespace {

/** Small conv model for the wiring tests (the accuracy suite runs the
 * real zoo). */
ModelProfile
tinyModel()
{
    ModelProfile m;
    m.name = "tiny";
    m.batch = 1;
    m.sparsity.act = 0.6;
    m.sparsity.grad = 0.5;
    LayerSpec l;
    l.name = "c1";
    l.in_c = 3;
    l.in_hw = 8;
    l.out_c = 4;
    l.kernel = 3;
    l.pad = 1;
    m.layers.push_back(l);
    l.name = "c2";
    l.in_c = 4;
    m.layers.push_back(l);
    return m;
}

/** A second model whose sparsity (and therefore speedup) clearly
 * differs from tinyModel's. */
ModelProfile
denseModel()
{
    ModelProfile m = tinyModel();
    m.name = "dense";
    m.sparsity.act = 0.05;
    m.sparsity.grad = 0.05;
    return m;
}

/** Fast configuration; @p seed keeps each test's task keys disjoint
 * from every other test's. */
RunConfig
estConfig(uint64_t seed)
{
    RunConfig cfg;
    cfg.accel.tiles = 2;
    cfg.accel.max_sampled_macs = 20000;
    cfg.seed = seed;
    cfg.threads = 0;
    return cfg;
}

/** Serialized sweep content with the cache/fidelity telemetry zeroed
 * (two runs holding identical cells compare equal regardless of how
 * the cells were produced). */
std::vector<uint8_t>
contentBytes(SweepResult s)
{
    s.cache_hits = 0;
    s.simulated = 0;
    s.estimated = 0;
    return s.serialize();
}

/** Relative error of @p got against @p want (0 when both are 0). */
double
relErr(double got, double want)
{
    if (want == 0.0)
        return got == 0.0 ? 0.0 : 1.0;
    return std::abs(got - want) / want;
}

/**
 * The accuracy bar of sim/estimator.hh: run the full zoo exactly and
 * through the estimate tier under @p mm, collect the per-cell relative
 * error on predicted TensorDash cycles, and pin median <= 10%,
 * p95 <= 25%.  Under the Analytic model baseline cycles reproduce the
 * lowering geometry exactly, so their error must be ~0.
 */
void
checkZooAccuracy(MemoryModel mm)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg;
    cfg.accel.memory_model = mm;
    cfg.accel.max_sampled_macs = 120000;
    cfg.cache = false;
    const std::vector<ModelProfile> models = ModelZoo::paperModels();

    SweepResult exact = ModelRunner(cfg).runMany(models);
    cfg.fidelity = Fidelity::Estimate;
    SweepResult est = ModelRunner(cfg).runMany(models);
    ASSERT_EQ(est.taskCount(), exact.taskCount());
    EXPECT_EQ(est.simulated, 0u);
    EXPECT_EQ(est.estimated, est.cellCount());

    std::vector<double> errors;
    for (size_t slot = 0; slot < exact.taskCount(); ++slot) {
        const LayerResult &ex = exact.layer_results[slot];
        const LayerResult &es = est.layer_results[slot];
        ASSERT_EQ(es.cells.size(), ex.cells.size());
        for (size_t j = 0; j < ex.cells.size(); ++j) {
            const OpResult &exact_op = ex.cells[j].op;
            const OpResult &est_op = es.cells[j].op;
            if (mm == MemoryModel::Analytic) {
                EXPECT_LT(relErr(est_op.base_cycles,
                                 exact_op.base_cycles),
                          1e-6)
                    << "baseline cycles are pure lowering geometry "
                       "and must be reproduced exactly (slot "
                    << slot << ", cell " << j << ")";
            }
            errors.push_back(
                relErr(est_op.td_cycles, exact_op.td_cycles));
        }
    }
    ASSERT_FALSE(errors.empty());
    std::sort(errors.begin(), errors.end());
    double median = errors[errors.size() / 2];
    double p95 = errors[(size_t)((double)(errors.size() - 1) * 0.95)];
    EXPECT_LE(median, 0.10)
        << "median TensorDash-cycle error above the 10% bar";
    EXPECT_LE(p95, 0.25) << "p95 TensorDash-cycle error above the "
                            "25% bar";
    ResultStore::shared().clearMemo();
}

TEST(EstimatorAccuracy, ZooErrorBoundsAnalytic)
{
    checkZooAccuracy(MemoryModel::Analytic);
}

TEST(EstimatorAccuracy, ZooErrorBoundsPipelined)
{
    checkZooAccuracy(MemoryModel::Pipelined);
}

TEST(EstimateTier, KeysNeverCollideWithExactKeys)
{
    // The whole safety story of the estimate tier: an estimate cell's
    // key is salted, so it can never serve where an exact result is
    // expected (or vice versa).
    RunConfig cfg = estConfig(11001);
    ModelProfile m = tinyModel();
    TaskKey exact = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);
    cfg.fidelity = Fidelity::Estimate;
    TaskKey est = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);
    EXPECT_NE(est.value, exact.value);
}

TEST(EstimateTier, RunsNeverTouchTheSimulatorOrExactCache)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = estConfig(11002);
    const std::vector<ModelProfile> models = {tinyModel()};

    // Cold estimate run: every cell estimated, nothing simulated.
    cfg.fidelity = Fidelity::Estimate;
    SweepResult est = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(est.simulated, 0u);
    EXPECT_EQ(est.estimated, est.cellCount());
    EXPECT_EQ(est.cache_hits, 0u);

    // A subsequent exact run of the same grid must fully simulate:
    // cached estimates are invisible to it.
    cfg.fidelity = Fidelity::Exact;
    SweepResult exact = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(exact.cache_hits, 0u);
    EXPECT_EQ(exact.simulated, exact.cellCount());
    EXPECT_EQ(exact.estimated, 0u);

    // And the estimate tier memoises under its own keys: a warm
    // estimate run is pure cache hits, bit-identical to the cold one.
    cfg.fidelity = Fidelity::Estimate;
    SweepResult warm = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(warm.cache_hits, warm.cellCount());
    EXPECT_EQ(warm.estimated, 0u);
    EXPECT_EQ(contentBytes(est), contentBytes(warm));
    ResultStore::shared().clearMemo();
}

TEST(EstimateTier, EstimateRunsAreDeterministic)
{
    RunConfig cfg = estConfig(11003);
    cfg.fidelity = Fidelity::Estimate;
    cfg.cache = false;
    const std::vector<ModelProfile> models = {tinyModel(),
                                              denseModel()};
    SweepResult a = ModelRunner(cfg).runMany(models);
    SweepResult b = ModelRunner(cfg).runMany(models);
    EXPECT_EQ(contentBytes(a), contentBytes(b));
    // Sparser inputs must estimate faster: the ranking the triage
    // tier exists to produce.
    EXPECT_GT(a.at(0).speedup(), a.at(1).speedup());
}

TEST(ClaimOrder, EstimatorCostKeyIsBitIdenticalAtAnyThreadCount)
{
    // The claim loop orders tasks by estimated simulation cost; order
    // must never leak into results.  Sweep a geometry axis (different
    // per-variant costs exercise the ordering) at 1, 2 and 8 threads
    // and require byte-identical sweeps.
    const std::vector<ModelProfile> models = {tinyModel(),
                                              denseModel()};
    SweepSpec spec;
    spec.models = models;
    spec.progress_points = {0.25, 0.75};
    spec.axes.push_back(
        axis("rows", {4, 8}, [](RunConfig &c, int rows) {
            c.accel.tile.rows = rows;
        }));

    std::vector<std::vector<uint8_t>> runs;
    for (int threads : {1, 2, 8}) {
        RunConfig cfg = estConfig(11004);
        cfg.cache = false;
        cfg.threads = threads;
        runs.push_back(
            contentBytes(ModelRunner(cfg).runSweep(spec)));
    }
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
}

TEST(BatchAxis, OverrideChangesTheKeyAndTheResult)
{
    RunConfig cfg = estConfig(11005);
    ModelProfile m = tinyModel();
    TaskKey base = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);

    // An override equal to the model's own batch is the identical
    // simulation and must share its key (and cached cells).
    cfg.batch_override = m.batch;
    EXPECT_EQ(TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5).value,
              base.value);

    // A different effective batch is a different simulation.
    cfg.batch_override = 4;
    TaskKey big = TaskKey::forOp(cfg, m, 0, TrainOp::Forward, 0.5);
    EXPECT_NE(big.value, base.value);

    // And it must match the key of a model whose *own* batch is 4:
    // batchAxis({4}) and editing the profile are the same cells.
    cfg.batch_override = 0;
    ModelProfile m4 = m;
    m4.batch = 4;
    EXPECT_EQ(TaskKey::forOp(cfg, m4, 0, TrainOp::Forward, 0.5).value,
              big.value);
}

TEST(BatchAxis, SweepsEveryModelThroughTheListedBatches)
{
    ResultStore::shared().clearMemo();
    RunConfig cfg = estConfig(11006);
    SweepSpec spec;
    spec.models = {tinyModel()};
    spec.axes.push_back(batchAxis({1, 4}));
    SweepResult sweep = ModelRunner(cfg).runSweep(spec);
    ASSERT_EQ(sweep.variantCount(), 2u);
    EXPECT_EQ(sweep.variants[0], "batch=1");
    EXPECT_EQ(sweep.variants[1], "batch=4");
    // tinyModel's own batch is 1, so variant 0 is the plain run and
    // variant 4x must do strictly more work.
    EXPECT_GT(sweep.at(0, 0, 1).total.base_cycles,
              sweep.at(0, 0, 0).total.base_cycles);

    // Batch-4 cells are content-identical to running a batch-4
    // profile directly: the override run warmed their cache slots.
    ModelProfile m4 = tinyModel();
    m4.batch = 4;
    const std::vector<ModelProfile> models4 = {m4};
    SweepResult direct = ModelRunner(cfg).runMany(models4);
    EXPECT_EQ(direct.cache_hits, direct.cellCount());
    EXPECT_EQ(direct.at(0).total.td_cycles,
              sweep.at(0, 0, 1).total.td_cycles);
    EXPECT_EQ(direct.at(0).energy_td.total(),
              sweep.at(0, 0, 1).energy_td.total());
    ResultStore::shared().clearMemo();
}

} // namespace
} // namespace tensordash
