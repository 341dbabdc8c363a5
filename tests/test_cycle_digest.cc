/**
 * @file
 * Cycle-exact goldens of the fig13 training grid, the fig22
 * pipelined-memory grid and the fig23 inference-phase grid.
 *
 * Runs each grid at TD_FAST sampling with the result cache off and
 * hashes every serialized OpCellResult (cycles, activity counters,
 * energy splits — every bit a cached cell stores) into one FNV-1a
 * digest per model, across all of the grid's config variants.  The digests below are committed constants:
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
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/hashing.hh"
#include "common/serial.hh"
#include "core/figures.hh"
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
    {"AlexNet", 0x47536b7d9bc833ffull},
    {"DenseNet121", 0x9c7597b169f8ffb1ull},
    {"SqueezeNet", 0xc28b1ed6c9010faeull},
    {"VGG16", 0xb4408991ca55eb79ull},
    {"img2txt", 0x3204fa6c6d4fc59dull},
    {"resnet50_DS90", 0x8e27ad36f34f36a7ull},
    {"resnet50_SM90", 0x697ab22623e91599ull},
    {"SNLI", 0x696f39382e99e9ceull},
};

/**
 * Per-model digests of the registry's fig22 grid (tiles 1..32 x the
 * paper suite, pipelined memory model, 60000 sampled MACs) and fig23
 * grid (the paper suite plus the recommenders x training/inference,
 * analytic memory model, 120000 sampled MACs), both seed 7 and
 * progress 0.5.  They were generated from the hand-built SweepSpecs
 * the fig22/fig23 benches ran before the figure registry existed, so
 * a match also proves the registry's JobSpec grids cycle-identical to
 * those.
 */
const ModelDigest kFig22Digests[] = {
    {"AlexNet", 0x7d000567893d7fdaull},
    {"DenseNet121", 0x50d0d863649e5aaaull},
    {"SqueezeNet", 0xa0bc4c9a03a113f1ull},
    {"VGG16", 0xc724ef0cc41bcfeeull},
    {"img2txt", 0x2ae05949bf437f8bull},
    {"resnet50_DS90", 0x6f002008419584b4ull},
    {"resnet50_SM90", 0x3e8977924150cd77ull},
    {"SNLI", 0xcdb079bcfe408f4bull},
};

const ModelDigest kFig23Digests[] = {
    {"AlexNet", 0x9535ef4776e56564ull},
    {"DenseNet121", 0x20250ef9f8b4026bull},
    {"SqueezeNet", 0x7c36eba6a4430797ull},
    {"VGG16", 0x66a85a531b2970c4ull},
    {"img2txt", 0x2978a6c858009848ull},
    {"resnet50_DS90", 0x7f9dcc4f496df56full},
    {"resnet50_SM90", 0xd6adace7f26417e4ull},
    {"SNLI", 0x58b74a5c2e80b158ull},
    {"WideDeep", 0xfbe9680f0b33f8d3ull},
    {"NeuMF", 0x3d0f55e44f0dd832ull},
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

/** Run registered figure @p name's JobSpec at TD_FAST sampling with
 * the result cache off. */
SweepResult
runFigureJob(const char *name, int threads)
{
    const char *saved = std::getenv("TD_FAST");
    const std::string saved_value = saved ? saved : "";
    ::setenv("TD_FAST", "1", 1);
    const std::optional<service::JobSpec> job =
        findFigure(name)->grid().job;
    if (saved)
        ::setenv("TD_FAST", saved_value.c_str(), 1);
    else
        ::unsetenv("TD_FAST");
    EXPECT_TRUE(job.has_value()) << name;
    if (!job)
        return {};
    RunConfig cfg = job->baseConfig();
    cfg.cache = false;
    cfg.threads = threads;
    return ModelRunner(cfg).runSweep(job->toSweepSpec());
}

class Fig13CycleDigest : public ::testing::TestWithParam<int>
{
};

TEST_P(Fig13CycleDigest, MatchesCommittedConstants)
{
    RunConfig cfg;
    cfg.accel.max_sampled_macs = 120000;
    cfg.accel.memory_model = MemoryModel::Analytic;
    cfg.cache = false;
    cfg.threads = GetParam();
    const std::vector<ModelProfile> models = ModelZoo::paperModels();
    SweepResult sweep = ModelRunner(cfg).runMany(models);
    ASSERT_EQ(sweep.variantCount(), 1u);
    expectDigests(sweep, kFig13Digests);
}

class Fig22CycleDigest : public ::testing::TestWithParam<int>
{
};

TEST_P(Fig22CycleDigest, RegistryGridMatchesCommittedConstants)
{
    SweepResult sweep = runFigureJob("fig22", GetParam());
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
    SweepResult sweep = runFigureJob("fig23", GetParam());
    ASSERT_EQ(sweep.variantCount(), 2u);
    EXPECT_EQ(sweep.variantPhase(1), WorkloadPhase::Inference);
    expectDigests(sweep, kFig23Digests);
}

std::string
threadsName(const ::testing::TestParamInfo<int> &info)
{
    return std::to_string(info.param) + "threads";
}

INSTANTIATE_TEST_SUITE_P(Threads, Fig13CycleDigest,
                         ::testing::Values(1, 4), threadsName);
INSTANTIATE_TEST_SUITE_P(Threads, Fig22CycleDigest,
                         ::testing::Values(1, 4), threadsName);
INSTANTIATE_TEST_SUITE_P(Threads, Fig23CycleDigest,
                         ::testing::Values(1, 4), threadsName);

} // namespace
} // namespace tensordash
