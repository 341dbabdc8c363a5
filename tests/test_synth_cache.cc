/**
 * @file
 * Tests for the content-addressed synthesis cache: SynthKey covers
 * exactly the synthesis-affecting inputs (and nothing else), a
 * multi-variant geometry sweep synthesizes each cell once, sweeps are
 * bit-identical at any thread count and under both memory models,
 * every entry is freed by its last consumer — whether the sweep
 * completes, finds every cell warm, is cancelled or fails — and
 * custom synthesize hooks key on their salt.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/tensordash.hh"

namespace tensordash {
namespace {

/** Small conv models with unequal layer counts (mirrors
 * test_sweep_spec's grid shapes). */
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

ModelProfile
tinyModelB()
{
    ModelProfile m = tinyModel();
    m.name = "tinyB";
    m.sparsity.act = 0.4;
    LayerSpec l = m.layers.back();
    l.name = "c3";
    l.stride = 2;
    l.pad = 0;
    m.layers.push_back(l);
    return m;
}

std::vector<ModelProfile>
tinyModels()
{
    return {tinyModel(), tinyModelB()};
}

/** Fast configuration; @p seed keeps each test's task and synth keys
 * disjoint from every other test's — the result memo and the synth
 * cache are both process-wide. */
RunConfig
specConfig(uint64_t seed)
{
    RunConfig cfg;
    cfg.accel.tiles = 2;
    cfg.accel.max_sampled_macs = 20000;
    cfg.seed = seed;
    cfg.threads = 0; // pool default: exercises concurrent claims
    // Bit-identity tests compare repeated runs of one spec: the result
    // memo would serve the repeat without simulating, hiding exactly
    // the synthesis paths under test.
    cfg.cache = false;
    return cfg;
}

SweepAxis
rowsAxis(std::initializer_list<int> rows)
{
    return axis("rows", rows, [](RunConfig &cfg, int r) {
        cfg.accel.tile.rows = r;
    });
}

/** Serialized sweep content with the cache telemetry zeroed. */
std::vector<uint8_t>
contentBytes(SweepResult s)
{
    s.cache_hits = 0;
    s.simulated = 0;
    return s.serialize();
}

TEST(SynthKeyTest, CoversSynthesisInputsOnly)
{
    RunConfig cfg = specConfig(9100);
    ModelProfile model = tinyModel();
    uint64_t base = SynthKey::forCell(cfg, model, 0, 0.5).value;

    // Stable across recomputation.
    EXPECT_EQ(base, SynthKey::forCell(cfg, model, 0, 0.5).value);

    // Every synthesis-affecting input moves the key.
    {
        RunConfig c = cfg;
        c.seed += 1;
        EXPECT_NE(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.batch_override = 4;
        EXPECT_NE(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    EXPECT_NE(base, SynthKey::forCell(cfg, model, 1, 0.5).value);
    EXPECT_NE(base, SynthKey::forCell(cfg, model, 0, 0.25).value);
    {
        ModelProfile m = model;
        m.sparsity.act = 0.3;
        EXPECT_NE(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
    }
    {
        ModelProfile m = model;
        m.sparsity.cluster_strength = 0.9;
        EXPECT_NE(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
    }
    {
        ModelProfile m = model;
        m.layers[0].in_c += 1;
        EXPECT_NE(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
    }
    {
        ModelProfile m = model;
        m.batch = 2;
        EXPECT_NE(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
    }
    EXPECT_NE(base, SynthKey::forCell(cfg, model, 0, 0.5, 7).value);

    // Execution and simulation knobs do not: geometry, memory model,
    // fidelity, phase, caching, threads.
    {
        RunConfig c = cfg;
        c.accel.tile.rows *= 2;
        c.accel.tiles *= 2;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.accel.memory_model = MemoryModel::Pipelined;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.fidelity = Fidelity::Estimate;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.phase = WorkloadPhase::Inference;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }
    {
        RunConfig c = cfg;
        c.cache = true;
        c.threads = 3;
        EXPECT_EQ(base, SynthKey::forCell(c, model, 0, 0.5).value);
    }

    // The model name only matters under a custom hook (non-zero
    // salt), which may legitimately seed off it.
    {
        ModelProfile m = model;
        m.name = "renamed";
        EXPECT_EQ(base, SynthKey::forCell(cfg, m, 0, 0.5).value);
        EXPECT_NE(SynthKey::forCell(cfg, model, 0, 0.5, 7).value,
                  SynthKey::forCell(cfg, m, 0, 0.5, 7).value);
    }
}

TEST(SynthCacheTest, CrossVariantReuseOnTwoAxisGrid)
{
    RunConfig cfg = specConfig(9200);
    ModelRunner runner(cfg);

    SweepSpec spec;
    spec.models = tinyModels();
    spec.progress_points = {0.5};
    spec.axes = {rowsAxis({2, 4}),
                 axis("tiles", {1, 2}, [](RunConfig &c, int t) {
                     c.accel.tiles = t;
                 })};

    SynthCache::shared().clear();
    const SynthCounters before = SynthCache::shared().counters();
    SweepResult sweep = runner.runSweep(spec);
    const SynthCounters after = SynthCache::shared().counters();

    // 4 geometry variants x 5 layers x 1 progress point: 5 unique
    // synthesis cells, each synthesized once and reused 3 times.
    const uint64_t cells = 5;
    const uint64_t variants = 4;
    EXPECT_EQ(after.keys - before.keys, cells);
    EXPECT_EQ(after.reuses - before.reuses, (variants - 1) * cells);
    EXPECT_EQ(sweep.taskCount(), variants * cells);
}

TEST(SynthCacheTest, EstimateVariantsNeverSynthesize)
{
    RunConfig cfg = specConfig(9250);
    cfg.fidelity = Fidelity::Estimate;
    ModelRunner runner(cfg);

    SweepSpec spec;
    spec.models = tinyModels();
    spec.progress_points = {0.5};
    spec.axes = {rowsAxis({2, 4})};

    SynthCache::shared().clear();
    const SynthCounters before = SynthCache::shared().counters();
    SweepResult sweep = runner.runSweep(spec);
    const SynthCounters after = SynthCache::shared().counters();
    EXPECT_EQ(after.keys, before.keys);
    EXPECT_EQ(after.reuses, before.reuses);
    EXPECT_EQ(sweep.estimated, sweep.cellCount());
}

TEST(SynthCacheTest, BitIdentityColdWarmDisabledAcrossThreads)
{
    for (MemoryModel mm :
         {MemoryModel::Analytic, MemoryModel::Pipelined}) {
        RunConfig cfg = specConfig(
            9300 + (mm == MemoryModel::Pipelined ? 7 : 0));
        cfg.accel.memory_model = mm;

        SweepSpec spec;
        spec.models = tinyModels();
        spec.progress_points = {0.25, 0.75};
        spec.axes = {rowsAxis({2, 4})};

        // Reference: single thread.
        RunConfig ref_cfg = cfg;
        ref_cfg.threads = 1;
        std::vector<uint8_t> want =
            contentBytes(ModelRunner(ref_cfg).runSweep(spec));

        for (int threads : {1, 2, 8}) {
            RunConfig c = cfg;
            c.threads = threads;

            SynthCache::shared().clear(); // cold
            EXPECT_EQ(want,
                      contentBytes(ModelRunner(c).runSweep(spec)))
                << "cold, threads=" << threads;
            EXPECT_EQ(SynthCache::shared().residentBytes(), 0u);

            // A rerun synthesizes again: the first run's entries died
            // with their last consumers.
            EXPECT_EQ(want,
                      contentBytes(ModelRunner(c).runSweep(spec)))
                << "rerun, threads=" << threads;
            EXPECT_EQ(SynthCache::shared().residentBytes(), 0u);
        }
    }
}

/** The 2-variant grid of the last-consumer tests. */
SweepSpec
twoVariantSpec()
{
    SweepSpec spec;
    spec.models = tinyModels();
    spec.progress_points = {0.5};
    spec.axes = {rowsAxis({2, 4})};
    return spec;
}

/** Cold sweep of @p spec that must leave nothing resident.  A use
 * leaked by an earlier sweep of the same keys would keep that key's
 * entry alive past this sweep's last consumer. */
void
expectColdSweepFreesAll(const RunConfig &cfg, const SweepSpec &spec)
{
    RunConfig c = cfg;
    c.cache = false;
    const SynthCounters before = SynthCache::shared().counters();
    EXPECT_TRUE(ModelRunner(c).runSweep(spec).complete());
    EXPECT_EQ(SynthCache::shared().counters().keys - before.keys, 5u);
    EXPECT_EQ(SynthCache::shared().residentBytes(), 0u);
}

TEST(SynthCacheTest, CompleteSweepFreesAtLastConsumer)
{
    RunConfig cfg = specConfig(9400);
    SynthCache::shared().clear();
    const SynthCounters before = SynthCache::shared().counters();
    SweepResult sweep = ModelRunner(cfg).runSweep(twoVariantSpec());
    const SynthCounters after = SynthCache::shared().counters();
    ASSERT_TRUE(sweep.complete());
    // 5 keys, each synthesized once and reused by its second variant
    // while resident, then freed by that last consumer.
    EXPECT_EQ(after.keys - before.keys, 5u);
    EXPECT_EQ(after.reuses - before.reuses, 5u);
    EXPECT_EQ(SynthCache::shared().residentBytes(), 0u);
    expectColdSweepFreesAll(cfg, twoVariantSpec());
}

TEST(SynthCacheTest, AllWarmRerunReleasesItsUses)
{
    RunConfig cfg = specConfig(9410);
    cfg.cache = true; // the rerun's cells come from the result memo
    ModelRunner runner(cfg);
    ASSERT_TRUE(runner.runSweep(twoVariantSpec()).complete());

    // Every task of the rerun is warm: none acquires, each releases.
    const SynthCounters before = SynthCache::shared().counters();
    SweepResult warm = runner.runSweep(twoVariantSpec());
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(SynthCache::shared().counters().keys, before.keys);
    EXPECT_EQ(SynthCache::shared().residentBytes(), 0u);
    expectColdSweepFreesAll(cfg, twoVariantSpec());
}

TEST(SynthCacheTest, CancelledSweepReleasesItsUses)
{
    RunConfig cfg = specConfig(9420);
    std::atomic<bool> stop{true};
    RunHooks hooks;
    hooks.cancel = &stop;
    const SynthCounters before = SynthCache::shared().counters();
    SweepResult cancelled =
        ModelRunner(cfg).runSweep(twoVariantSpec(), hooks);
    EXPECT_EQ(cancelled.presentCellCount(), 0u);
    EXPECT_EQ(SynthCache::shared().counters().keys, before.keys);
    EXPECT_EQ(SynthCache::shared().residentBytes(), 0u);
    expectColdSweepFreesAll(cfg, twoVariantSpec());
}

TEST(SynthCacheTest, FailedSweepReleasesItsUses)
{
    RunConfig cfg = specConfig(9430);
    cfg.threads = 1;
    SweepSpec spec = twoVariantSpec();
    spec.synthesis_salt = 13;
    // Layer 1 of every model fails; whatever was synthesized before
    // the failure, and every task the failure skipped, must let go.
    std::atomic<bool> fail{true};
    spec.synthesize = [&fail](const RunConfig &c, const ModelProfile &m,
                              size_t layer, double progress) {
        if (fail && layer == 1)
            throw std::runtime_error("synthesis failed");
        Rng rng(c.seed + layer);
        return ModelZoo::synthesize(m, m.layers[layer], progress, rng);
    };
    EXPECT_THROW(ModelRunner(cfg).runSweep(spec), std::runtime_error);
    EXPECT_EQ(SynthCache::shared().residentBytes(), 0u);
    fail = false;
    expectColdSweepFreesAll(cfg, spec);
}

TEST(SynthCacheTest, UnregisteredAcquireCachesNothing)
{
    SynthCache &cache = SynthCache::shared();
    ModelProfile model = tinyModel();
    const LayerSpec &layer = model.layers[0];
    const SynthKey key{0xabc000};
    std::atomic<int> synth_calls{0};
    auto synth = [&]() -> LayerTensors {
        ++synth_calls;
        Rng rng(1000);
        return ModelZoo::synthesize(model, layer, 0.5, rng);
    };

    // No expect(): each acquisition synthesizes and keeps nothing.
    const SynthCounters before = cache.counters();
    auto a = cache.acquire(key, synth);
    EXPECT_EQ(cache.residentBytes(), 0u);
    auto b = cache.acquire(key, synth);
    EXPECT_EQ(synth_calls.load(), 2);
    EXPECT_EQ(cache.counters().keys - before.keys, 2u);
    EXPECT_EQ(cache.counters().reuses, before.reuses);
    EXPECT_EQ(a->tensors.acts.maxAbsDiff(b->tensors.acts), 0.0f);
    EXPECT_EQ(cache.residentBytes(), 0u);
}

TEST(SynthCacheTest, ExpectedUsesEndAtLastAcquireOrRelease)
{
    SynthCache cache;
    ModelProfile model = tinyModel();
    const LayerSpec &layer = model.layers[0];
    std::atomic<int> synth_calls{0};
    auto synth = [&]() -> LayerTensors {
        ++synth_calls;
        Rng rng(1001);
        return ModelZoo::synthesize(model, layer, 0.5, rng);
    };

    // Three uses, registered additively: two acquisitions share one
    // synthesis, and the third use handed back frees the entry.
    const SynthKey key{0xabc001};
    cache.expect(key, 2);
    cache.expect(key, 1);
    auto first = cache.acquire(key, synth);
    EXPECT_EQ(cache.residentBytes(), first->bytes);
    auto second = cache.acquire(key, synth);
    EXPECT_EQ(first, second);
    EXPECT_EQ(cache.residentBytes(), first->bytes);
    cache.release(key);
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_EQ(synth_calls.load(), 1);

    // A released-only key never synthesizes; a last acquisition frees
    // its own entry before returning it.
    cache.expect(key, 2);
    cache.release(key);
    auto last = cache.acquire(key, synth);
    EXPECT_EQ(synth_calls.load(), 2);
    EXPECT_EQ(cache.residentBytes(), 0u);
    EXPECT_EQ(last->tensors.acts.maxAbsDiff(first->tensors.acts), 0.0f);

    // Releasing an unregistered key is harmless.
    cache.release(SynthKey{0xabc002});
    const SynthCounters c = cache.counters();
    EXPECT_EQ(c.keys, 2u);
    EXPECT_EQ(c.reuses, 1u);
}

TEST(SynthCacheTest, CustomHookSweepsKeyOnSalt)
{
    RunConfig cfg = specConfig(9500);
    ModelRunner runner(cfg);

    std::atomic<size_t> hook_calls{0};
    auto makeSpec = [&](uint64_t salt) {
        SweepSpec spec;
        spec.models = {tinyModel()};
        spec.progress_points = {0.5};
        spec.axes = {rowsAxis({2, 4})};
        spec.synthesize = [&hook_calls](const RunConfig &c,
                                        const ModelProfile &m,
                                        size_t layer, double progress) {
            ++hook_calls;
            Rng rng(c.seed * 31 + layer * 7 +
                    (uint64_t)(progress * 100));
            return ModelZoo::synthesize(m, m.layers[layer], progress,
                                        rng);
        };
        spec.synthesis_salt = salt;
        return spec;
    };

    SynthCache::shared().clear();
    const SynthCounters before = SynthCache::shared().counters();
    runner.runSweep(makeSpec(11));
    // 2 variants x 2 layers, one hook call per unique cell.
    EXPECT_EQ(hook_calls.load(), 2u);
    const SynthCounters mid = SynthCache::shared().counters();
    EXPECT_EQ(mid.keys - before.keys, 2u);
    EXPECT_EQ(mid.reuses - before.reuses, 2u);

    // A different salt is a different hook contract: nothing reuses
    // across salts even though models and seeds agree.
    runner.runSweep(makeSpec(12));
    EXPECT_EQ(hook_calls.load(), 4u);
    const SynthCounters after = SynthCache::shared().counters();
    EXPECT_EQ(after.keys - mid.keys, 2u);
}

} // namespace
} // namespace tensordash
