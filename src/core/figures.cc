#include "core/figures.hh"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/env.hh"
#include "common/hashing.hh"
#include "common/stats.hh"
#include "models/model_zoo.hh"
#include "sim/memory/dram.hh"
#include "sparsity/generator.hh"

namespace tensordash {

bool
fastMode()
{
    const std::string v = env::stringKnob("TD_FAST");
    return !v.empty() && v[0] == '1';
}

namespace {

/** Per-op dense-MAC sampling cap: @p full, or @p fast under TD_FAST. */
uint64_t
sampleBudget(uint64_t full, uint64_t fast)
{
    return fastMode() ? fast : full;
}

/** The paper suite under Table 2 defaults, training, analytic memory
 * (the published evaluation assumes the streaming dataflow hides
 * off-chip latency) and Fig. 13's sampling cap — the base every
 * JobSpec-backed figure edits. */
service::JobSpec
paperJob()
{
    service::JobSpec job;
    job.models = ModelZoo::paperModelNames();
    job.memory_model = (uint8_t)MemoryModel::Analytic;
    job.max_sampled_macs = sampleBudget(600000, 120000);
    return job;
}

FigureGrid
jobGrid(service::JobSpec job)
{
    return {job.baseConfig(), job.toSweepSpec(), std::move(job)};
}

/** paperJob() with one registry axis and its own sampling cap. */
FigureGrid
paperAxisGrid(service::AxisKind kind, std::vector<int64_t> values,
              uint64_t full, uint64_t fast)
{
    service::JobSpec job = paperJob();
    job.axes.push_back({kind, std::move(values)});
    job.max_sampled_macs = sampleBudget(full, fast);
    return jobGrid(std::move(job));
}

/** A grid JobSpec cannot express: paper suite, analytic memory. */
FigureGrid
directGrid(uint64_t full, uint64_t fast)
{
    FigureGrid g;
    g.base.accel.memory_model = MemoryModel::Analytic;
    g.base.accel.max_sampled_macs = sampleBudget(full, fast);
    g.spec.models = ModelZoo::paperModels();
    return g;
}

// ---- Shared renderers --------------------------------------------------

/** Core and overall energy efficiency per model plus their means
 * (Fig. 15, and Table 4's bf16 datapath). */
Table
efficiencyTable(const SweepResult &sweep, const char *title,
                const char *core, const char *overall)
{
    Table t(title);
    t.header({"model", core, overall});
    double core_mean = 0.0, overall_mean = 0.0;
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m);
        t.row({sweep.models[m], fmtSpeedup(r.coreEfficiency()),
               fmtSpeedup(r.overallEfficiency())});
        core_mean += r.coreEfficiency();
        overall_mean += r.overallEfficiency();
    }
    t.row({"average",
           fmtSpeedup(core_mean / (double)sweep.modelCount()),
           fmtSpeedup(overall_mean / (double)sweep.modelCount())});
    return t;
}

/** Speedup per model at every config variant plus the per-variant
 * mean (Figs. 17 and 18) or, with @p geo, geomean (Fig. 19). */
Table
variantSpeedupTable(const SweepResult &sweep,
                    std::vector<std::string> header, bool geo = false)
{
    Table t;
    header.insert(header.begin(), "model");
    t.header(header);
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        std::vector<std::string> row = {sweep.models[m]};
        for (size_t v = 0; v < sweep.variantCount(); ++v)
            row.push_back(fmtDouble(sweep.at(m, 0, v).speedup(), 2));
        t.row(row);
    }
    std::vector<std::string> mean_row = {geo ? "Geom" : "average"};
    for (size_t v = 0; v < sweep.variantCount(); ++v)
        mean_row.push_back(fmtDouble(geo ? sweep.geomeanSpeedup(0, v)
                                         : sweep.meanSpeedup(0, v),
                                     2));
    t.row(mean_row);
    return t;
}

// ---- Fig. 1 ------------------------------------------------------------

Table
potentialTable(const SweepResult &sweep)
{
    Table t;
    t.header({"model", "AxW", "AxG", "WxG", "Total"});
    std::vector<double> totals;
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m);
        t.row({sweep.models[m],
               fmtSpeedup(r.opPotential(TrainOp::Forward)),
               fmtSpeedup(r.opPotential(TrainOp::BackwardData)),
               fmtSpeedup(r.opPotential(TrainOp::BackwardWeights)),
               fmtSpeedup(r.totalPotential())});
        totals.push_back(r.totalPotential());
    }
    t.row({"geomean", "", "", "", fmtSpeedup(geomean(totals))});
    return t;
}

// ---- Fig. 13 -----------------------------------------------------------

/** One row per model with the training ops' speedups and the total,
 * then the average and geomean rows. */
Table
fig13Table(const SweepResult &sweep)
{
    const std::span<const TrainOp> ops =
        phaseOps(WorkloadPhase::Training);
    Table t;
    std::vector<std::string> header{"model"};
    for (TrainOp op : ops)
        header.push_back(trainOpName(op));
    header.push_back("Total");
    t.header(header);
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m);
        std::vector<std::string> row{sweep.models[m]};
        for (const OpResult &opr : r.ops)
            row.push_back(fmtSpeedup(opr.speedup()));
        row.push_back(fmtSpeedup(r.speedup()));
        t.row(row);
    }
    std::vector<std::string> blanks(ops.size(), "");
    std::vector<std::string> avg{"average"};
    avg.insert(avg.end(), blanks.begin(), blanks.end());
    avg.push_back(fmtSpeedup(sweep.meanSpeedup()));
    t.row(avg);
    std::vector<std::string> geo{"geomean"};
    geo.insert(geo.end(), blanks.begin(), blanks.end());
    geo.push_back(fmtSpeedup(sweep.geomeanSpeedup()));
    t.row(geo);
    return t;
}

// ---- Fig. 14 -----------------------------------------------------------

/** Every point shares the synthesis seed, so the columns differ only
 * in training progress. */
FigureGrid
overTimeGrid()
{
    service::JobSpec job = paperJob();
    job.progress_points = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                           0.6, 0.7, 0.8, 0.9, 1.0};
    job.max_sampled_macs = sampleBudget(200000, 60000);
    return jobGrid(std::move(job));
}

Table
overTimeTable(const SweepResult &sweep)
{
    Table t;
    std::vector<std::string> header = {"model"};
    for (double p : sweep.progress_points)
        header.push_back(fmtPercent(p, 0));
    t.header(header);
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        std::vector<std::string> row = {sweep.models[m]};
        for (size_t p = 0; p < sweep.pointCount(); ++p)
            row.push_back(fmtDouble(sweep.at(m, p).speedup(), 2));
        t.row(row);
    }
    return t;
}

// ---- Fig. 16 -----------------------------------------------------------

Table
energyBreakdownTable(const SweepResult &sweep)
{
    Table t;
    t.header({"model", "arch", "DRAM %", "Core %", "SRAM %", "Total %"});
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m);
        double base_total = r.energy_base.total();
        auto pct = [&](double j) {
            return fmtDouble(100.0 * j / base_total, 1);
        };
        t.row({sweep.models[m], "TensorDash", pct(r.energy_td.dram_j),
               pct(r.energy_td.core_j), pct(r.energy_td.sram_j),
               pct(r.energy_td.total())});
        t.row({"", "Baseline", pct(r.energy_base.dram_j),
               pct(r.energy_base.core_j), pct(r.energy_base.sram_j),
               "100.0"});
    }
    return t;
}

// ---- Fig. 19 -----------------------------------------------------------

/** The paper reports these four models and their geomean. */
FigureGrid
stagingDepthGrid()
{
    service::JobSpec job = paperJob();
    job.models = {"DenseNet121", "SqueezeNet", "img2txt",
                  "resnet50_DS90"};
    job.axes.push_back({service::AxisKind::Depth, {2, 3}});
    job.max_sampled_macs = sampleBudget(400000, 80000);
    return jobGrid(std::move(job));
}

// ---- Fig. 20 -----------------------------------------------------------
//
// Each sparsity level is one synthetic single-spec model whose layers
// are the level's independent samples — the engine merges a model's
// layers in serial order, which is exactly the per-level sample merge
// — and a synthesis hook reproduces the Bernoulli tensors with their
// historical (level, sample) seeding.

// The 3x3 convolution of DenseNet121's first dense block.
constexpr int kBatch = 2, kInC = 128, kHw = 14, kOutC = 32, kKernel = 3;
constexpr ConvSpec kConv{1, 1};

/** One sparsity level as a synthetic model: each layer is one
 * independent random sample of the same convolution. */
ModelProfile
levelModel(int pct, int samples)
{
    ModelProfile m;
    m.name = std::to_string(pct);
    m.description = "random Bernoulli sparsity, " + m.name + "%";
    m.batch = kBatch;
    m.sparsity.act = m.sparsity.grad = pct / 100.0;
    LayerSpec l;
    l.in_c = kInC;
    l.in_hw = kHw;
    l.out_c = kOutC;
    l.kernel = kKernel;
    l.stride = 1;
    l.pad = 1;
    l.act_sparsity = l.grad_sparsity = pct / 100.0;
    for (int s = 0; s < samples; ++s) {
        l.name = "sample" + std::to_string(s);
        m.layers.push_back(l);
    }
    return m;
}

/** Bernoulli-sparse tensors with the figure's historical seeding:
 * one Rng stream per (level, sample), weights dense. */
LayerTensors
synthesizeSample(const RunConfig &, const ModelProfile &model,
                 size_t sample, double)
{
    int pct = (int)std::lround(model.sparsity.act * 100.0);
    Rng rng((uint64_t)pct * 131 + (uint64_t)sample);
    LayerTensors t;
    t.acts = Tensor(kBatch, kInC, kHw, kHw);
    t.acts.fillNormal(rng);
    applyBernoulliSparsity(t.acts, pct / 100.0, rng);
    t.weights = Tensor(kOutC, kInC, kKernel, kKernel);
    t.weights.fillNormal(rng);
    t.grads = Tensor(kBatch, kOutC, kHw, kHw);
    t.grads.fillNormal(rng);
    applyBernoulliSparsity(t.grads, pct / 100.0, rng);
    t.spec = kConv;
    return t;
}

/** Ten levels (0%..90%) of 10 samples (3 under TD_FAST) on the
 * default accelerator and its pipelined memory model. */
FigureGrid
randomSparsityGrid()
{
    FigureGrid g;
    g.base.accel.max_sampled_macs = sampleBudget(300000, 60000);
    const int samples = fastMode() ? 3 : 10;
    for (int level = 0; level < 10; ++level)
        g.spec.models.push_back(levelModel(level * 10, samples));
    g.spec.synthesize = synthesizeSample;
    // Content id of synthesizeSample (the generator and its seeding
    // scheme); per-cell inputs are keyed via the model profile and
    // layer index as usual.
    FnvHasher salt;
    salt.str("fig20 bernoulli conv v1");
    g.spec.synthesis_salt = salt.value();
    // The historical figure wrote outputs back dense.
    g.spec.estimate_out_sparsity = false;
    return g;
}

Table
randomSparsityTable(const SweepResult &sweep)
{
    Table t;
    t.header({"Sparsity %", "AxW", "AxG", "WxG", "Total", "ideal"});
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        int pct = (int)m * 10;
        const ModelRunResult &r = sweep.at(m);
        double ideal =
            std::min(3.0, 1.0 / std::max(0.02, 1.0 - pct / 100.0));
        t.row({std::to_string(pct), fmtDouble(r.ops[0].speedup(), 2),
               fmtDouble(r.ops[1].speedup(), 2),
               fmtDouble(r.ops[2].speedup(), 2),
               fmtDouble(r.total.speedup(), 2), fmtDouble(ideal, 2)});
    }
    return t;
}

// ---- GCN (section 4.4) -------------------------------------------------

/** Gating is a one-axis sweep; the gated variant exercises the
 * engine's two-phase observe/run pipeline. */
FigureGrid
noSparsityGrid()
{
    service::JobSpec job = paperJob();
    job.models = {"GCN"};
    job.axes.push_back({service::AxisKind::Gating, {0, 1}});
    return jobGrid(std::move(job));
}

Table
noSparsityTable(const SweepResult &sweep)
{
    const char *const labels[] = {"no power gating",
                                  "with power gating"};
    Table t;
    t.header({"configuration", "speedup", "core eff.", "overall eff."});
    for (size_t v = 0; v < sweep.variantCount(); ++v) {
        const ModelRunResult &r = sweep.at(0, 0, v);
        t.row({labels[v], fmtSpeedup(r.speedup()),
               fmtSpeedup(r.coreEfficiency()),
               fmtSpeedup(r.overallEfficiency())});
    }
    return t;
}

// ---- Fig. 22 -----------------------------------------------------------
//
// MAC throughput (tiles x 256 MACs/cycle) against the fixed Table 2
// LPDDR4-3200 bandwidth under the Pipelined memory model: per training
// convolution, the fraction of TensorDash cycles stalled on off-chip
// traffic, plus the compute -> memory crossover — the smallest MAC
// array that spends the majority of its cycles stalled on DRAM (the
// suite's FC layers stall a little at any size, so "any stall" would
// trip at one tile and say nothing).

const std::vector<int64_t> kRooflineTiles = {1, 2, 4, 8, 16, 32};

/** Majority-stalled = the op has crossed into the memory regime. */
constexpr double kStallThreshold = 0.5;

FigureGrid
rooflineGrid()
{
    service::JobSpec job = paperJob();
    job.memory_model = (uint8_t)MemoryModel::Pipelined;
    job.axes.push_back({service::AxisKind::Tiles, kRooflineTiles});
    job.max_sampled_macs = sampleBudget(250000, 60000);
    return jobGrid(std::move(job));
}

/** Mean per-op stall fraction across the model suite at one config
 * variant (an op index past the phase's op set reads the total). */
double
suiteOpStall(const SweepResult &sweep, size_t op, size_t variant)
{
    double sum = 0.0;
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m, 0, variant);
        const OpResult &res = op < r.ops.size() ? r.ops[op] : r.total;
        sum += res.memoryStallFraction();
    }
    return sweep.modelCount() ? sum / (double)sweep.modelCount() : 0.0;
}

Table
rooflineTable(const SweepResult &sweep)
{
    // A JobSpec carries no DRAM timing: the grid runs Table 2's.
    const AcceleratorConfig accel;
    const double bytes_per_cycle =
        DramModel(accel.dram).bytesPerCycle(accel.freq_ghz);
    // One stall column per training-phase op plus the total.
    const std::span<const TrainOp> ops =
        phaseOps(WorkloadPhase::Training);
    const size_t ncols = ops.size() + 1;
    Table t;
    std::vector<std::string> header = {"tiles", "MACs/cyc", "B/cyc"};
    for (TrainOp op : ops)
        header.push_back(std::string(trainOpName(op)) + " stall");
    header.push_back("Total stall");
    header.push_back("speedup");
    t.header(header);
    // First DRAM-limited array size per op (-1 = never in sweep).
    std::vector<int> crossover(ncols, -1);
    for (size_t v = 0; v < sweep.variantCount(); ++v) {
        const int tiles = (int)kRooflineTiles[v];
        std::vector<std::string> row = {fmtDouble(tiles, 0),
                                        fmtDouble(tiles * 256.0, 0),
                                        fmtDouble(bytes_per_cycle, 1)};
        for (size_t op = 0; op < ncols; ++op) {
            double stall = suiteOpStall(sweep, op, v);
            row.push_back(fmtPercent(stall));
            if (crossover[op] < 0 && stall >= kStallThreshold)
                crossover[op] = tiles;
        }
        row.push_back(fmtSpeedup(sweep.meanSpeedup(0, v)));
        t.row(row);
    }
    std::vector<std::string> cross = {"crossover", "", ""};
    for (size_t op = 0; op < ncols; ++op)
        cross.push_back(crossover[op] < 0
                            ? std::string("none")
                            : fmtDouble(crossover[op], 0) + " tiles");
    cross.push_back("");
    t.row(cross);
    return t;
}

// ---- Fig. 23 -----------------------------------------------------------

/** The training variant runs all three convolutions per layer, the
 * inference variant only AxW; both address the same per-op cells, so
 * a prior fig13 run warms every Forward cell. */
FigureGrid
inferenceGrid()
{
    service::JobSpec job = paperJob();
    for (const ModelProfile &m : ModelZoo::recommenderModels())
        job.models.push_back(m.name);
    job.axes.push_back({service::AxisKind::Phase, {0, 1}});
    return jobGrid(std::move(job));
}

Table
inferenceTable(const SweepResult &sweep)
{
    Table t;
    std::vector<std::string> header{"model"};
    for (size_t v = 0; v < sweep.variantCount(); ++v) {
        const char *tag = phaseName(sweep.variantPhase(v));
        for (TrainOp op : phaseOps(sweep.variantPhase(v)))
            header.push_back(std::string(tag) + " " + trainOpName(op));
        header.push_back(std::string(tag) + " total");
    }
    t.header(header);
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        std::vector<std::string> row{sweep.models[m]};
        for (size_t v = 0; v < sweep.variantCount(); ++v) {
            const ModelRunResult &r = sweep.at(m, 0, v);
            for (const OpResult &opr : r.ops)
                row.push_back(fmtSpeedup(opr.speedup()));
            row.push_back(fmtSpeedup(r.speedup()));
        }
        t.row(row);
    }
    std::vector<std::string> geo{"geomean"};
    for (size_t v = 0; v < sweep.variantCount(); ++v) {
        for (size_t i = 0; i < phaseOps(sweep.variantPhase(v)).size(); ++i)
            geo.push_back("");
        geo.push_back(fmtSpeedup(sweep.geomeanSpeedup(0, v)));
    }
    t.row(geo);
    return t;
}

// ---- Table 4 (bfloat16, section 4.4) -----------------------------------

FigureGrid
bf16Grid()
{
    FigureGrid g = directGrid(300000, 80000);
    g.base.accel.dtype = DataType::Bf16;
    return g;
}

// ---- Interconnect ablation ---------------------------------------------
//
// How much of the benefit comes from each piece of the sparse
// interconnect: dense-only (no movement), lookahead-only, the paper's
// 8-option pattern, the Auto side policy that may schedule the weight
// side for pruned models, and a full crossbar (idealised).

struct InterconnectVariant
{
    const char *name;
    InterconnectKind kind;
    FwdSide fwd;
    BwdDataSide bwd;
};

const InterconnectVariant kInterconnects[] = {
    {"dense-only (baseline front end)", InterconnectKind::DenseOnly,
     FwdSide::Activations, BwdDataSide::Gradients},
    {"lookahead-only", InterconnectKind::LookaheadOnly,
     FwdSide::Activations, BwdDataSide::Gradients},
    {"paper (2 lookahead + 5 lookaside)", InterconnectKind::Paper,
     FwdSide::Activations, BwdDataSide::Gradients},
    {"paper + Auto side policy", InterconnectKind::Paper, FwdSide::Auto,
     BwdDataSide::Auto},
    {"full crossbar (idealised)", InterconnectKind::Crossbar,
     FwdSide::Activations, BwdDataSide::Gradients},
};

FigureGrid
interconnectGrid()
{
    FigureGrid g = directGrid(150000, 50000);
    std::vector<AxisOption> options;
    for (const InterconnectVariant &v : kInterconnects)
        options.push_back({v.name, [v](RunConfig &cfg) {
                               cfg.accel.tile.interconnect = v.kind;
                               cfg.accel.fwd_side = v.fwd;
                               cfg.accel.bwd_data_side = v.bwd;
                           }});
    g.spec.axes = {axis("interconnect", std::move(options))};
    return g;
}

Table
interconnectTable(const SweepResult &sweep)
{
    Table t;
    t.header({"interconnect", "geomean speedup"});
    for (size_t v = 0; v < sweep.variantCount(); ++v)
        t.row({kInterconnects[v].name,
               fmtSpeedup(sweep.geomeanSpeedup(0, v))});
    return t;
}

// ---- The registry ------------------------------------------------------

const FigureDef kFigures[] = {
    {"fig01", "Fig. 1: potential work reduction per training convolution",
     "average potential ~3x across models; DenseNet121 lowest but "
     "above 1.5x; SqueezeNet above 2x; pruned ResNet50 variants "
     "highest",
     [] { return jobGrid(paperJob()); }, potentialTable},
    {"fig13", "Fig. 13: TensorDash speedup over the baseline",
     "1.95x average speedup; never slows down execution; "
     "DenseNet121's WxG speedup is negligible (its batch-norm "
     "layers absorb the gradient sparsity)",
     [] { return jobGrid(paperJob()); }, fig13Table},
    {"fig14", "Fig. 14: speedup as training progresses",
     "speedups fairly stable throughout training; dense models "
     "trace an overturned U (low at random init, peak by ~10%, "
     "gradual decline in the second half); resnet50_SM90 starts "
     "~1.75x and settles ~1.5x, resnet50_DS90 starts ~1.95x and "
     "settles ~1.8x",
     overTimeGrid, overTimeTable},
    {"fig15", "Fig. 15: energy efficiency over the baseline",
     "compute logic 1.89x more energy efficient on average; 1.6x "
     "overall when on-chip and off-chip memory accesses are taken "
     "into account",
     [] { return jobGrid(paperJob()); },
     [](const SweepResult &s) {
         return efficiencyTable(s, "", "Core Energy Effic.",
                                "Overall Energy Effic.");
     }},
    {"fig16", "Fig. 16: energy breakdown normalised to the baseline",
     "TensorDash significantly reduces the energy of the core, which "
     "dominates system energy; DRAM and SRAM segments are nearly "
     "unchanged (both architectures compress off-chip traffic)",
     [] { return jobGrid(paperJob()); }, energyBreakdownTable},
    {"fig17", "Fig. 17: speedup vs PE rows per tile (cols = 4)",
     "average speedup decreases from 2.1x at 1 row to 1.72x at 16 "
     "rows: all rows wait for the one with the densest value stream",
     [] {
         return paperAxisGrid(service::AxisKind::Rows, {1, 2, 4, 8, 16},
                              250000, 60000);
     },
     [](const SweepResult &s) {
         return variantSpeedupTable(
             s, {"1Row", "2Rows", "4Rows", "8Rows", "16Rows"});
     }},
    {"fig18", "Fig. 18: speedup vs PE columns per tile (rows = 4)",
     "increasing columns scales throughput to 16K MACs/cycle with "
     "little effect on speedup; slight drops are due predominantly to "
     "fragmentation",
     [] {
         return paperAxisGrid(service::AxisKind::Cols, {4, 16}, 250000,
                              60000);
     },
     [](const SweepResult &s) {
         return variantSpeedupTable(s, {"4 Columns", "16 Columns"});
     }},
    {"fig19", "Fig. 19: staging buffer depth 2 vs 3",
     "2-deep staging (5 movements/multiplier) yields lower but still "
     "considerable speedups -- an appealing cost/performance point",
     stagingDepthGrid,
     [](const SweepResult &s) {
         return variantSpeedupTable(s, {"2-Deep", "3-Deep"}, true);
     }},
    {"fig20", "Fig. 20: speedup on randomly sparse tensors",
     "performance closely follows input sparsity: ~1.1x at 10% (ideal "
     "1.11x), 2.95x at 90% (the 3-deep staging buffer caps the ideal "
     "at 3x); consistent across forward and backward ops",
     randomSparsityGrid, randomSparsityTable},
    {"fig21",
     "GCN (no sparsity): behaviour on a model with virtually no zeros",
     "GCN exhibits virtually no sparsity; TensorDash still improves "
     "performance by ~1% (a few layers have ~5% sparsity) and overall "
     "energy efficiency is only ~0.5% lower than the baseline without "
     "power gating",
     noSparsityGrid, noSparsityTable},
    {"fig22",
     "Fig. 22: memory roofline: MAC throughput vs DRAM bandwidth",
     "no paper figure: the published evaluation charges DRAM "
     "analytically (latency hidden); the arXiv extension (2009.00748) "
     "and SparseTrain report sparse-training gains bound by bandwidth "
     "once the MAC array is fast enough",
     rooflineGrid, rooflineTable},
    {"fig23", "Fig. 23: training vs forward-only inference speedup",
     "no paper figure: the arXiv extension (2009.00748) runs "
     "TensorDash forward-only; inference speedup equals the AxW column "
     "of Fig. 13 by construction (shared result cells), and the "
     "recommender MLPs ride the new matmul lowerings",
     inferenceGrid, inferenceTable},
    {"tab04", "bfloat16 study: energy efficiency with a bf16 datapath",
     "bf16 overheads 1.13x area / 1.05x power (vs 1.09x / 1.02x for "
     "fp32; see tab03_area_power); compute logic 1.84x and overall "
     "1.43x more energy efficient",
     bf16Grid,
     [](const SweepResult &s) {
         return efficiencyTable(s, "bfloat16 energy efficiency per model",
                                "core", "overall");
     }},
    {"ablation-interconnect",
     "Interconnect ablation: movement options vs speedup (geomean over "
     "suite)",
     "the paper argues the restricted 8-option interconnect captures "
     "most of an unrestricted crossbar's benefit at a fraction of the "
     "cost; lookaside options matter because they balance work across "
     "lanes",
     interconnectGrid, interconnectTable},
};

} // namespace

std::span<const FigureDef>
figureRegistry()
{
    return kFigures;
}

const FigureDef *
findFigure(std::string_view name)
{
    for (const FigureDef &f : kFigures)
        if (name == f.name)
            return &f;
    return nullptr;
}

} // namespace tensordash
