/**
 * @file
 * Cycle-exact goldens of the fig13 training grid, the fig22
 * pipelined-memory grid, the fig23 inference-phase grid and the grids
 * that vary the tile's own shape: fig17 (PE rows per tile), fig19
 * (staging depth) and the interconnect ablation (every
 * InterconnectKind).
 *
 * Runs each grid at TD_FAST sampling with the result cache off and
 * hashes every serialized OpCellResult (cycles, activity counters,
 * energy splits — every bit a cached cell stores) into one FNV-1a
 * digest per model, across all of the grid's config variants.  A
 * warm pass repeats fig13 and fig22 with every cell decoded from the
 * on-disk result cache.  The digests below are committed constants:
 * any change to tensor synthesis, the random streams, lowering, the
 * tile kernel or the energy model that moves a single cycle fails the
 * test and names the model it moved.  A deliberate semantic change
 * regenerates them (the failure message prints the new table) and says
 * so in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "common/hashing.hh"
#include "common/serial.hh"
#include "core/figures.hh"
#include "core/result_store.hh"
#include "core/runner.hh"
#include "models/model_zoo.hh"

namespace tensordash {
namespace {

struct ModelDigest
{
    const char *model;
    uint64_t digest;
};

/** Per-model digests of the fig13 grid (seed 7, progress 0.5,
 * 120000 sampled MACs, analytic memory model). */
const ModelDigest kFig13Digests[] = {
    {"AlexNet", 0x1401feb772e8804bull},
    {"DenseNet121", 0xc2df193f0eea84ecull},
    {"SqueezeNet", 0xfd95a9b4d78167a9ull},
    {"VGG16", 0xa0662c7bafcd069eull},
    {"img2txt", 0x237b6376f613addaull},
    {"resnet50_DS90", 0x87c465e386d03dcfull},
    {"resnet50_SM90", 0x8ae277fc756e48ecull},
    {"SNLI", 0x456362e6997740eeull},
};

/**
 * Per-model digests of the registry's fig22 grid (tiles 1..32 x the
 * paper suite, pipelined memory model, 60000 sampled MACs) and fig23
 * grid (the paper suite plus the recommenders x training/inference,
 * analytic memory model, 120000 sampled MACs), both seed 7 and
 * progress 0.5.  They were generated from the hand-built SweepSpecs
 * the fig22/fig23 benches ran before the figure registry existed, so
 * a match also proved the registry's JobSpec grids cycle-identical to
 * those; all three tables were regenerated when synthesis became
 * mask-first and counter-based.
 */
const ModelDigest kFig22Digests[] = {
    {"AlexNet", 0x7096800752bda314ull},
    {"DenseNet121", 0xa91366efc6ec2917ull},
    {"SqueezeNet", 0x00eeaf83e72c521cull},
    {"VGG16", 0x99c9eaa784cd8b41ull},
    {"img2txt", 0x1464ef0b4f66920dull},
    {"resnet50_DS90", 0xc659d0071cd5e115ull},
    {"resnet50_SM90", 0xd679739b290aef0aull},
    {"SNLI", 0x0617ff0da79094eaull},
};

const ModelDigest kFig23Digests[] = {
    {"AlexNet", 0xd2c530d920e5acd7ull},
    {"DenseNet121", 0xddbd2480ad0e7cd6ull},
    {"SqueezeNet", 0x9330dca09e7be915ull},
    {"VGG16", 0xefc0187a50957eb9ull},
    {"img2txt", 0x7d98eedcacdec4e1ull},
    {"resnet50_DS90", 0x12ac434493593f35ull},
    {"resnet50_SM90", 0x578ac7dde768e63bull},
    {"SNLI", 0x2b44690ab3936e79ull},
    {"WideDeep", 0x544a24fb7323ed23ull},
    {"NeuMF", 0xd9c1a9d63abe63a9ull},
};

/**
 * Per-model digests of the registry grids whose tile shape differs
 * from the paper default (4 rows, depth 3, Paper interconnect): fig17
 * (rows 1/2/4/8/16), fig19 (depth 2/3, four models) and
 * ablation-interconnect (DenseOnly, LookaheadOnly, Paper, Paper with
 * the Auto side policy, Crossbar), all at TD_FAST sampling, seed 7,
 * progress 0.5.  They pin the scheduler kernel on every row count,
 * depth and interconnect a figure runs.
 */
const ModelDigest kFig17Digests[] = {
    {"AlexNet", 0x6335bdc996a46c39ull},
    {"DenseNet121", 0xc380240f939c2ab8ull},
    {"SqueezeNet", 0x76ce483ab2e357b5ull},
    {"VGG16", 0xf7fbb5041a4bc7d4ull},
    {"img2txt", 0xc6ce62d3f4d85b1dull},
    {"resnet50_DS90", 0xdcecb33e7ee199a6ull},
    {"resnet50_SM90", 0xa0aaf0b760915a99ull},
    {"SNLI", 0x7ef190c1835f569cull},
};

const ModelDigest kFig19Digests[] = {
    {"DenseNet121", 0x53e5207932423c25ull},
    {"SqueezeNet", 0x70eb1425d01c2505ull},
    {"img2txt", 0x157ab3d4bf12e211ull},
    {"resnet50_DS90", 0xbd34b937af329325ull},
};

const ModelDigest kInterconnectDigests[] = {
    {"AlexNet", 0xfd636fd777f10781ull},
    {"DenseNet121", 0x392ef91445df3248ull},
    {"SqueezeNet", 0x7a4714d72876acb9ull},
    {"VGG16", 0x01121f4792dbd95dull},
    {"img2txt", 0x84063ca2d8a0d476ull},
    {"resnet50_DS90", 0xce584c1e627c3c4cull},
    {"resnet50_SM90", 0x0888cf1f1d52111dull},
    {"SNLI", 0x2b13f8d2e605fcbcull},
};

/** FNV-1a of every serialized op cell of each model, in grid order
 * (variant-major: a model's digest folds its cells of every config
 * variant; the grids here have one progress point). */
std::vector<uint64_t>
modelDigests(const SweepResult &sweep)
{
    std::vector<FnvHasher> h(sweep.modelCount());
    size_t slot = 0;
    for (size_t v = 0; v < sweep.variantCount(); ++v) {
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            for (uint32_t l = 0; l < sweep.model_layer_counts[m]; ++l) {
                for (const OpCellResult &cell :
                     sweep.layer_results[slot++].cells) {
                    ByteWriter w;
                    cell.serialize(w);
                    h[m].bytes(w.data().data(), w.size());
                }
            }
        }
    }
    std::vector<uint64_t> out;
    for (const FnvHasher &m : h)
        out.push_back(m.value());
    return out;
}

/** Compare @p sweep's per-model digests to @p expected, printing the
 * current table on any mismatch. */
void
expectDigests(const SweepResult &sweep,
              std::span<const ModelDigest> expected)
{
    ASSERT_TRUE(sweep.complete());
    ASSERT_EQ(sweep.pointCount(), 1u);
    std::vector<uint64_t> got = modelDigests(sweep);
    std::string table;
    for (size_t m = 0; m < got.size(); ++m) {
        char line[128];
        std::snprintf(line, sizeof(line),
                      "    {\"%s\", 0x%016" PRIx64 "ull},\n",
                      sweep.models[m].c_str(), got[m]);
        table += line;
    }
    ASSERT_EQ(got.size(), expected.size())
        << "model suite changed; current digests:\n" << table;
    for (size_t m = 0; m < got.size(); ++m) {
        EXPECT_EQ(sweep.models[m], expected[m].model);
        EXPECT_EQ(got[m], expected[m].digest)
            << "cycle results of " << sweep.models[m] << " moved";
    }
    if (::testing::Test::HasFailure())
        std::printf("current digests:\n%s", table.c_str());
}

/** Run the fig13 grid at @p threads; an empty @p cache_dir turns the
 * result cache off, otherwise cells go through that disk cache. */
SweepResult
runFig13(int threads, const std::string &cache_dir = "")
{
    RunConfig cfg;
    cfg.accel.max_sampled_macs = 120000;
    cfg.accel.memory_model = MemoryModel::Analytic;
    cfg.cache = !cache_dir.empty();
    cfg.cache_dir = cache_dir;
    cfg.threads = threads;
    const std::vector<ModelProfile> models = ModelZoo::paperModels();
    return ModelRunner(cfg).runMany(models);
}

/** Run registered figure @p name's grid at TD_FAST sampling, with
 * the result cache as in runFig13.  JobSpec-backed figures build their
 * grid from the JobSpec, so this is the grid td-sweep serves too. */
SweepResult
runFigure(const char *name, int threads, const std::string &cache_dir = "")
{
    const char *saved = std::getenv("TD_FAST");
    const std::string saved_value = saved ? saved : "";
    ::setenv("TD_FAST", "1", 1);
    const FigureGrid grid = findFigure(name)->grid();
    if (saved)
        ::setenv("TD_FAST", saved_value.c_str(), 1);
    else
        ::unsetenv("TD_FAST");
    RunConfig cfg = grid.base;
    cfg.cache = !cache_dir.empty();
    cfg.cache_dir = cache_dir;
    cfg.threads = threads;
    return ModelRunner(cfg).runSweep(grid.spec);
}

/**
 * Warm pass: fill a fresh disk cache with a cold 4-thread run of
 * @p run, drop the in-process memo so every cell has to be decoded
 * from disk, and rerun at 1 thread.  The rerun must simulate nothing;
 * its digests then check the serialized cells a multi-thread run
 * wrote against the same constants as the cold passes.
 */
template <typename RunFn>
SweepResult
warmFromDisk(const char *name, RunFn run)
{
    std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) /
        (std::string("td_warm_digest_") + name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);

    ResultStore::shared().clearMemo();
    SweepResult cold = run(4, dir.string());
    EXPECT_EQ(cold.simulated, cold.cellCount());
    ResultStore::shared().clearMemo();
    SweepResult warm = run(1, dir.string());
    ResultStore::shared().clearMemo();
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cache_hits, warm.cellCount());
    std::filesystem::remove_all(dir);
    return warm;
}

class Fig13CycleDigest : public ::testing::TestWithParam<int>
{
};

TEST_P(Fig13CycleDigest, MatchesCommittedConstants)
{
    SweepResult sweep = runFig13(GetParam());
    ASSERT_EQ(sweep.variantCount(), 1u);
    expectDigests(sweep, kFig13Digests);
}

class Fig22CycleDigest : public ::testing::TestWithParam<int>
{
};

TEST_P(Fig22CycleDigest, RegistryGridMatchesCommittedConstants)
{
    SweepResult sweep = runFigure("fig22", GetParam());
    ASSERT_EQ(sweep.variantCount(), 6u);
    for (size_t v = 0; v < sweep.variantCount(); ++v)
        EXPECT_EQ(sweep.variant_memory_models[v], MemoryModel::Pipelined);
    expectDigests(sweep, kFig22Digests);
}

class Fig23CycleDigest : public ::testing::TestWithParam<int>
{
};

TEST_P(Fig23CycleDigest, RegistryGridMatchesCommittedConstants)
{
    SweepResult sweep = runFigure("fig23", GetParam());
    ASSERT_EQ(sweep.variantCount(), 2u);
    EXPECT_EQ(sweep.variantPhase(1), WorkloadPhase::Inference);
    expectDigests(sweep, kFig23Digests);
}

std::string
threadsName(const ::testing::TestParamInfo<int> &info)
{
    return std::to_string(info.param) + "threads";
}

TEST(TileShapeCycleDigest, Fig17RowsGridMatchesCommittedConstants)
{
    SweepResult sweep = runFigure("fig17", 4);
    ASSERT_EQ(sweep.variantCount(), 5u);
    expectDigests(sweep, kFig17Digests);
}

TEST(TileShapeCycleDigest, Fig19DepthGridMatchesCommittedConstants)
{
    SweepResult sweep = runFigure("fig19", 4);
    ASSERT_EQ(sweep.variantCount(), 2u);
    expectDigests(sweep, kFig19Digests);
}

TEST(TileShapeCycleDigest, InterconnectGridMatchesCommittedConstants)
{
    SweepResult sweep = runFigure("ablation-interconnect", 4);
    ASSERT_EQ(sweep.variantCount(), 5u);
    expectDigests(sweep, kInterconnectDigests);
}

TEST(WarmCycleDigest, Fig13CellsFromDiskMatchCommittedConstants)
{
    expectDigests(warmFromDisk("fig13", runFig13), kFig13Digests);
}

TEST(WarmCycleDigest, Fig22CellsFromDiskMatchCommittedConstants)
{
    expectDigests(warmFromDisk("fig22", [](int threads,
                                           const std::string &dir) {
                      return runFigure("fig22", threads, dir);
                  }),
                  kFig22Digests);
}

INSTANTIATE_TEST_SUITE_P(Threads, Fig13CycleDigest,
                         ::testing::Values(1, 4), threadsName);
INSTANTIATE_TEST_SUITE_P(Threads, Fig22CycleDigest,
                         ::testing::Values(1, 4), threadsName);
INSTANTIATE_TEST_SUITE_P(Threads, Fig23CycleDigest,
                         ::testing::Values(1, 4), threadsName);

} // namespace
} // namespace tensordash
