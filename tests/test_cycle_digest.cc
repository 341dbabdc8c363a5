/**
 * @file
 * Cycle-exact golden of the fig13 training grid.
 *
 * Runs the paper's model suite at TD_FAST sampling with the result
 * cache off and hashes every serialized OpCellResult (cycles, activity
 * counters, energy splits — every bit a cached cell stores) into one
 * FNV-1a digest per model.  The digests below are committed constants:
 * any change to tensor synthesis, the random streams, lowering, the
 * tile kernel or the energy model that moves a single cycle fails the
 * test and names the model it moved.  A deliberate semantic change
 * regenerates them (the failure message prints the new table) and says
 * so in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "common/hashing.hh"
#include "common/serial.hh"
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

/** FNV-1a of every serialized op cell of each model, in grid order. */
std::vector<uint64_t>
modelDigests(const SweepResult &sweep)
{
    std::vector<uint64_t> out;
    size_t slot = 0;
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        FnvHasher h;
        for (uint32_t l = 0; l < sweep.model_layer_counts[m]; ++l) {
            for (const OpCellResult &cell :
                 sweep.layer_results[slot++].cells) {
                ByteWriter w;
                cell.serialize(w);
                h.bytes(w.data().data(), w.size());
            }
        }
        out.push_back(h.value());
    }
    return out;
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
    ASSERT_TRUE(sweep.complete());
    ASSERT_EQ(sweep.pointCount(), 1u);
    ASSERT_EQ(sweep.variantCount(), 1u);

    std::vector<uint64_t> got = modelDigests(sweep);
    std::string table;
    for (size_t m = 0; m < got.size(); ++m) {
        char line[128];
        std::snprintf(line, sizeof(line),
                      "    {\"%s\", 0x%016" PRIx64 "ull},\n",
                      sweep.models[m].c_str(), got[m]);
        table += line;
    }
    ASSERT_EQ(got.size(), std::size(kFig13Digests))
        << "model suite changed; current digests:\n" << table;
    for (size_t m = 0; m < got.size(); ++m) {
        EXPECT_EQ(sweep.models[m], kFig13Digests[m].model);
        EXPECT_EQ(got[m], kFig13Digests[m].digest)
            << "cycle results of " << sweep.models[m] << " moved";
    }
    if (HasFailure())
        std::printf("current digests:\n%s", table.c_str());
}

INSTANTIATE_TEST_SUITE_P(Threads, Fig13CycleDigest,
                         ::testing::Values(1, 4),
                         [](const ::testing::TestParamInfo<int> &info) {
                             return std::to_string(info.param) +
                                    "threads";
                         });

} // namespace
} // namespace tensordash
