/**
 * @file
 * Integration tests for the model-level runner: the paper's headline
 * behaviours must hold on the full workload suite (scaled-down
 * sampling for test speed), and the task-based engine must produce
 * bit-identical results at any thread count.
 */

#include <gtest/gtest.h>

#include "core/tensordash.hh"

namespace tensordash {
namespace {

RunConfig
fastConfig()
{
    RunConfig cfg;
    cfg.accel.tiles = 4;
    cfg.accel.max_sampled_macs = 120000;
    // The paper-headline bounds below assume the published
    // evaluation's memory model: off-chip latency hidden, traffic
    // charged for energy only.  The pipelined model is covered by
    // MemoryPipelineModel.* in test_memory_pipeline.cc and the
    // pipelined engine tests further down.
    cfg.accel.memory_model = MemoryModel::Analytic;
    // Engine tests compare repeated runs of the same configuration;
    // memoisation would serve the second run from the first and mask
    // any thread-count-dependent bug.  Caching has its own coverage in
    // test_result_store.cc.
    cfg.cache = false;
    return cfg;
}

/** Exact (bitwise) equality of two op aggregates. */
void
expectSameOp(const OpResult &a, const OpResult &b)
{
    EXPECT_EQ(a.op, b.op);
    EXPECT_EQ(a.base_cycles, b.base_cycles);
    EXPECT_EQ(a.td_cycles, b.td_cycles);
    EXPECT_EQ(a.b_nonzero_slots, b.b_nonzero_slots);
    EXPECT_EQ(a.b_total_slots, b.b_total_slots);
    EXPECT_EQ(a.mac_slots, b.mac_slots);
    EXPECT_EQ(a.gated, b.gated);
    EXPECT_EQ(a.base_mem_stall_cycles, b.base_mem_stall_cycles);
    EXPECT_EQ(a.td_mem_stall_cycles, b.td_mem_stall_cycles);
    EXPECT_EQ(a.memory_bound, b.memory_bound);
    EXPECT_EQ(a.activity.cycles, b.activity.cycles);
    EXPECT_EQ(a.activity.dram_busy_cycles, b.activity.dram_busy_cycles);
    EXPECT_EQ(a.activity.sram_block_reads, b.activity.sram_block_reads);
    EXPECT_EQ(a.activity.sram_block_writes,
              b.activity.sram_block_writes);
    EXPECT_EQ(a.activity.spad_row_reads, b.activity.spad_row_reads);
    EXPECT_EQ(a.activity.spad_row_writes, b.activity.spad_row_writes);
    EXPECT_EQ(a.activity.dram_read_bytes, b.activity.dram_read_bytes);
    EXPECT_EQ(a.activity.dram_write_bytes, b.activity.dram_write_bytes);
    EXPECT_EQ(a.activity.transposer_groups,
              b.activity.transposer_groups);
}

/** Exact (bitwise) equality of two whole-model results. */
void
expectSameResult(const ModelRunResult &a, const ModelRunResult &b)
{
    EXPECT_EQ(a.model, b.model);
    for (int op = 0; op < 3; ++op)
        expectSameOp(a.ops[op], b.ops[op]);
    expectSameOp(a.total, b.total);
    EXPECT_EQ(a.energy_base.core_j, b.energy_base.core_j);
    EXPECT_EQ(a.energy_base.sram_j, b.energy_base.sram_j);
    EXPECT_EQ(a.energy_base.dram_j, b.energy_base.dram_j);
    EXPECT_EQ(a.energy_td.core_j, b.energy_td.core_j);
    EXPECT_EQ(a.energy_td.sram_j, b.energy_td.sram_j);
    EXPECT_EQ(a.energy_td.dram_j, b.energy_td.dram_j);
}

/**
 * The pre-refactor serial driver, reproduced verbatim on the public
 * API: one shared Accelerator, layers in order, power-gate counters
 * observed (not frozen) just before each layer's ops.  The task-based
 * engine must match it bit for bit.
 */
ModelRunResult
serialReference(const RunConfig &config, const ModelProfile &model)
{
    ModelRunResult result;
    result.model = model.name;
    for (int i = 0; i < 3; ++i)
        result.ops[i].op = (TrainOp)i;

    AcceleratorConfig accel_cfg = config.accel;
    accel_cfg.wg_side = model.wg_side;
    Accelerator accel(accel_cfg);

    Rng rng(config.seed * 0x2545f4914f6cdd1dull + 1);
    for (const LayerSpec &layer : model.layers) {
        Rng layer_rng(rng.fork());
        LayerTensors t = ModelZoo::synthesize(model, layer,
                                              config.progress,
                                              layer_rng);
        accel.powerGate().observe("acts", t.acts.sparsity());
        accel.powerGate().observe("grads", t.grads.sparsity());
        accel.powerGate().observe("weights", t.weights.sparsity());
        const double out_sparsity[3] = {t.acts.sparsity(),
                                        t.grads.sparsity(), 0.0};
        for (int i = 0; i < 3; ++i) {
            OpResult r = accel.runConvOp((TrainOp)i, t.acts, t.weights,
                                         t.grads, t.spec,
                                         out_sparsity[i]);
            result.ops[i].merge(r);
            result.total.merge(r);
            result.energy_base.merge(accel.energy(r, false));
            result.energy_td.merge(accel.energy(r, true));
        }
    }
    return result;
}

TEST(Runner, EveryModelSpeedsUpAndRespectsTheCap)
{
    ModelRunner runner(fastConfig());
    for (const auto &m : ModelZoo::paperModels()) {
        ModelRunResult r = runner.run(m);
        EXPECT_GE(r.speedup(), 1.0) << m.name;
        EXPECT_LE(r.speedup(), 3.0) << m.name;
        for (int op = 0; op < 3; ++op) {
            EXPECT_GE(r.opSpeedup((TrainOp)op), 1.0 - 1e-9) << m.name;
            EXPECT_LE(r.opSpeedup((TrainOp)op), 3.0 + 1e-9) << m.name;
        }
    }
}

TEST(Runner, HeadlineOrderingMatchesPaper)
{
    ModelRunner runner(fastConfig());
    auto densenet = runner.runByName("DenseNet121");
    auto alexnet = runner.runByName("AlexNet");
    auto ds90 = runner.runByName("resnet50_DS90");
    auto sm90 = runner.runByName("resnet50_SM90");

    // DenseNet121 is the slowest model; its WxG speedup is negligible.
    EXPECT_LT(densenet.speedup(), alexnet.speedup());
    EXPECT_LT(densenet.opSpeedup(TrainOp::BackwardWeights), 1.1);
    // Dynamic sparse reparameterization beats sparse momentum
    // (section 4.2: ~1.8x vs ~1.5x).
    EXPECT_GT(ds90.speedup(), sm90.speedup());
}

TEST(Runner, AverageSpeedupNearPaperHeadline)
{
    // Paper: 1.95x average speedup, 1.89x core and 1.6x overall energy
    // efficiency.  The reproduction must land in the neighbourhood.
    ModelRunner runner(fastConfig());
    std::vector<double> speedups, core_effs, overall_effs;
    for (const auto &m : ModelZoo::paperModels()) {
        ModelRunResult r = runner.run(m);
        speedups.push_back(r.speedup());
        core_effs.push_back(r.coreEfficiency());
        overall_effs.push_back(r.overallEfficiency());
    }
    double mean_speedup = 0.0, mean_core = 0.0, mean_overall = 0.0;
    for (size_t i = 0; i < speedups.size(); ++i) {
        mean_speedup += speedups[i];
        mean_core += core_effs[i];
        mean_overall += overall_effs[i];
    }
    mean_speedup /= speedups.size();
    mean_core /= speedups.size();
    mean_overall /= speedups.size();
    EXPECT_NEAR(mean_speedup, 1.95, 0.25);
    EXPECT_NEAR(mean_core, 1.89, 0.25);
    EXPECT_NEAR(mean_overall, 1.6, 0.25);
    // Core efficiency tracks speedup through the 2% power overhead.
    EXPECT_LT(mean_core, mean_speedup);
    // Overall is diluted by memory energy.
    EXPECT_LT(mean_overall, mean_core);
}

TEST(Runner, SpeedupStableAcrossTrainingForDenseModels)
{
    // Fig. 14: after the first few epochs the speedup varies modestly.
    RunConfig cfg = fastConfig();
    std::vector<double> speedups;
    for (double progress : {0.2, 0.5, 0.8}) {
        cfg.progress = progress;
        ModelRunner runner(cfg);
        speedups.push_back(runner.runByName("AlexNet").speedup());
    }
    for (double s : speedups)
        EXPECT_NEAR(s, speedups[0], 0.35);
}

TEST(Runner, PrunedModelsStartFasterThanTheySettle)
{
    RunConfig start_cfg = fastConfig();
    start_cfg.progress = 0.0;
    RunConfig settle_cfg = fastConfig();
    settle_cfg.progress = 0.5;
    ModelRunner start(start_cfg), settle(settle_cfg);
    double s0 = start.runByName("resnet50_DS90").speedup();
    double s5 = settle.runByName("resnet50_DS90").speedup();
    EXPECT_GT(s0, s5);
}

TEST(Runner, GcnBarelyMovesWithoutPowerGating)
{
    // Section 4.4: ~1% speedup, <1% energy-efficiency loss.
    ModelRunner runner(fastConfig());
    ModelRunResult r = runner.run(ModelZoo::gcn());
    EXPECT_GE(r.speedup(), 1.0);
    EXPECT_LT(r.speedup(), 1.08);
    EXPECT_GT(r.overallEfficiency(), 0.97);
    EXPECT_LT(r.overallEfficiency(), 1.05);
}

TEST(Runner, GcnWithPowerGatingLosesNothing)
{
    RunConfig cfg = fastConfig();
    cfg.accel.power_gating = true;
    ModelRunner runner(cfg);
    ModelRunResult r = runner.run(ModelZoo::gcn());
    // Gated layers burn baseline power, so efficiency >= 1.
    EXPECT_GE(r.overallEfficiency(), 1.0 - 1e-9);
}

TEST(Runner, Bf16ConfigurationRuns)
{
    RunConfig cfg = fastConfig();
    cfg.accel.dtype = DataType::Bf16;
    ModelRunner runner(cfg);
    ModelRunResult r = runner.runByName("SqueezeNet");
    EXPECT_GT(r.speedup(), 1.2);
    // bf16 core efficiency sits slightly below fp32's (1.84 vs 1.89
    // at the paper's averages) because the relative power overhead is
    // larger.
    RunConfig fp32_cfg = fastConfig();
    ModelRunner fp32(fp32_cfg);
    ModelRunResult rf = fp32.runByName("SqueezeNet");
    EXPECT_LT(r.coreEfficiency(), rf.coreEfficiency());
}

TEST(Runner, FewerRowsImproveSpeedup)
{
    // Fig. 17 trend on one clustered model.
    RunConfig one = fastConfig();
    one.accel.tile.rows = 1;
    RunConfig eight = fastConfig();
    eight.accel.tile.rows = 8;
    double s1 = ModelRunner(one).runByName("resnet50_SM90").speedup();
    double s8 = ModelRunner(eight).runByName("resnet50_SM90").speedup();
    EXPECT_GT(s1, s8);
}

TEST(Runner, TwoDeepStagingIsSlowerButStillWins)
{
    // Fig. 19 trend.
    RunConfig deep = fastConfig();
    RunConfig shallow = fastConfig();
    shallow.accel.tile.depth = 2;
    double s3 = ModelRunner(deep).runByName("img2txt").speedup();
    double s2 = ModelRunner(shallow).runByName("img2txt").speedup();
    EXPECT_GT(s3, s2);
    EXPECT_GT(s2, 1.2);
}

TEST(RunnerEngine, RunManyBitIdenticalAcrossThreadCounts)
{
    // The determinism guarantee: identical results at 1, 2 and 8
    // threads, including across multiple progress points.
    const std::vector<ModelProfile> models = {
        ModelZoo::byName("SqueezeNet"), ModelZoo::byName("AlexNet")};
    const std::vector<double> points = {0.25, 0.75};

    RunConfig cfg = fastConfig();
    cfg.threads = 1;
    SweepResult serial = ModelRunner(cfg).runMany(models, points);
    ASSERT_EQ(serial.results.size(), 4u);

    for (int threads : {2, 8}) {
        cfg.threads = threads;
        SweepResult parallel = ModelRunner(cfg).runMany(models, points);
        ASSERT_EQ(parallel.results.size(), serial.results.size());
        for (size_t m = 0; m < serial.modelCount(); ++m)
            for (size_t p = 0; p < serial.pointCount(); ++p)
                expectSameResult(parallel.at(m, p), serial.at(m, p));
    }
}

TEST(RunnerEngine, MatchesPreRefactorSerialPath)
{
    // The task-based engine reproduces the historical single-threaded
    // interleaved loop bit for bit on a zoo model.
    RunConfig cfg = fastConfig();
    ModelProfile model = ModelZoo::byName("SqueezeNet");
    ModelRunResult want = serialReference(cfg, model);
    for (int threads : {1, 4}) {
        cfg.threads = threads;
        expectSameResult(ModelRunner(cfg).run(model), want);
    }
}

TEST(RunnerEngine, GatedRunMatchesPreRefactorSerialPath)
{
    // With power gating on, the frozen observe/run phasing must make
    // the same per-layer decisions the interleaved loop made.
    RunConfig cfg = fastConfig();
    cfg.accel.power_gating = true;
    ModelProfile gcn = ModelZoo::gcn();
    ModelRunResult want = serialReference(cfg, gcn);
    for (int threads : {1, 4}) {
        cfg.threads = threads;
        expectSameResult(ModelRunner(cfg).run(gcn), want);
    }

    // The gating must actually have fired: without it the nearly
    // sparsity-free GCN still ekes out a small speedup.
    RunConfig ungated = fastConfig();
    ungated.accel.power_gating = false;
    EXPECT_LT(want.speedup(), ModelRunner(ungated).run(gcn).speedup());
}

TEST(RunnerEngine, RunManyGridMatchesIndividualRuns)
{
    const std::vector<ModelProfile> models = {
        ModelZoo::byName("SqueezeNet"), ModelZoo::byName("img2txt")};
    RunConfig cfg = fastConfig();
    SweepResult sweep = ModelRunner(cfg).runMany(models);
    ASSERT_EQ(sweep.modelCount(), 2u);
    ASSERT_EQ(sweep.pointCount(), 1u);
    EXPECT_EQ(sweep.progress_points[0], cfg.progress);
    for (size_t m = 0; m < models.size(); ++m)
        expectSameResult(sweep.at(m), ModelRunner(cfg).run(models[m]));
    EXPECT_EQ(sweep.speedups().size(), 2u);
    EXPECT_GT(sweep.meanSpeedup(), 1.0);
    EXPECT_GT(sweep.geomeanSpeedup(), 1.0);
}

TEST(RunnerEngine, LoadBalancedClaimOrderIsBitIdentical)
{
    // Tasks are claimed costliest-first (estimated dense MACs).  On a
    // suite with heavily skewed layer costs — AlexNet mixes huge FC
    // layers with small convolutions — the claim order differs
    // radically from grid order, yet results must stay bit-identical
    // at 1, 2 and 8 threads and across both memory models.
    const std::vector<ModelProfile> models = {
        ModelZoo::byName("AlexNet"), ModelZoo::byName("SqueezeNet")};
    const std::vector<double> points = {0.5};

    for (MemoryModel mm :
         {MemoryModel::Analytic, MemoryModel::Pipelined}) {
        RunConfig cfg = fastConfig();
        cfg.accel.memory_model = mm;
        cfg.threads = 1;
        SweepResult serial = ModelRunner(cfg).runMany(models, points);
        for (int threads : {2, 8}) {
            cfg.threads = threads;
            SweepResult parallel =
                ModelRunner(cfg).runMany(models, points);
            for (size_t m = 0; m < serial.modelCount(); ++m)
                expectSameResult(parallel.at(m), serial.at(m));
        }
    }
}

TEST(RunnerEngine, PipelinedRunsTagResultsAndAccountStalls)
{
    RunConfig cfg = fastConfig();
    cfg.accel.memory_model = MemoryModel::Pipelined;
    ModelRunResult r = ModelRunner(cfg).runByName("AlexNet");
    EXPECT_EQ(r.memory_model, MemoryModel::Pipelined);
    // AlexNet's FC layers are far below the Table 2 roofline's ridge:
    // some of the run must be stalled on bandwidth.
    EXPECT_GT(r.memoryStallFraction(), 0.0);
    EXPECT_LT(r.memoryStallFraction(), 1.0);
    EXPECT_TRUE(r.memoryBound());
    // The analytic run of the same config reports no stalls and
    // compute-only cycles (never more than the pipelined end-to-end).
    cfg.accel.memory_model = MemoryModel::Analytic;
    ModelRunResult ra = ModelRunner(cfg).runByName("AlexNet");
    EXPECT_EQ(ra.memory_model, MemoryModel::Analytic);
    EXPECT_EQ(ra.memoryStallFraction(), 0.0);
    EXPECT_FALSE(ra.memoryBound());
    EXPECT_LT(ra.total.td_cycles, r.total.td_cycles);
    EXPECT_LE(r.speedup(), ra.speedup() + 1e-9);
}

TEST(RunnerEngine, EmptyModelPanics)
{
    setLogThrowMode(true);
    ModelProfile empty;
    empty.name = "empty";
    ModelRunner runner(fastConfig());
    EXPECT_THROW(runner.run(empty), SimError);
    setLogThrowMode(false);
}

TEST(RunnerEngine, NegativeThreadCountPanics)
{
    // A negative count used to fall through to the pool sizing path
    // and silently behave like "use the whole pool"; it must be
    // rejected at the API boundary instead.
    setLogThrowMode(true);
    RunConfig cfg = fastConfig();
    cfg.threads = -1;
    ModelRunner runner(cfg);
    EXPECT_THROW(runner.runByName("SqueezeNet"), SimError);
    cfg.threads = -1000;
    EXPECT_THROW(ModelRunner(cfg).runByName("SqueezeNet"), SimError);
    setLogThrowMode(false);
}

TEST(PowerGatePhasing, FreezeFixesDecisionsAndRejectsObserve)
{
    setLogThrowMode(true);
    PowerGateController gate(0.10);
    // Observe phase: decisions track the counters as they train.
    EXPECT_FALSE(gate.frozen());
    EXPECT_TRUE(gate.enabled("acts")); // unobserved defaults to on
    gate.observe("acts", 0.40);
    gate.observe("grads", 0.02);
    gate.freeze();
    // Run phase: frozen decisions are readable but immutable.
    EXPECT_TRUE(gate.frozen());
    EXPECT_TRUE(gate.enabled("acts"));
    EXPECT_FALSE(gate.enabled("grads"));
    EXPECT_EQ(gate.lastObserved("acts"), 0.40);
    EXPECT_THROW(gate.observe("acts", 0.9), SimError);
    // clear() returns to the observe phase.
    gate.clear();
    EXPECT_FALSE(gate.frozen());
    EXPECT_TRUE(gate.enabled("grads"));
    setLogThrowMode(false);
}

TEST(PowerGatePhasing, FreezeFromLoadsAnObservationTable)
{
    setLogThrowMode(true);
    PowerGateController source(0.10);
    source.observe("acts", 0.30);
    source.observe("grads", 0.01);
    GateObservations table = source.observations();

    PowerGateController gate(0.10);
    gate.freezeFrom(table);
    EXPECT_TRUE(gate.frozen());
    EXPECT_TRUE(gate.enabled("acts"));
    EXPECT_FALSE(gate.enabled("grads"));
    EXPECT_TRUE(gate.enabled("weights")); // absent from the table
    // Re-freezing a frozen controller is a phasing bug.
    EXPECT_THROW(gate.freezeFrom(table), SimError);
    setLogThrowMode(false);
}

} // namespace
} // namespace tensordash
