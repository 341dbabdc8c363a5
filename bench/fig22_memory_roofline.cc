/**
 * @file
 * Fig. 22 (extension): memory roofline of the pipelined DRAM model.
 *
 * Sweeps MAC throughput (tiles x 256 MACs/cycle) against the fixed
 * Table 2 LPDDR4-3200 bandwidth under the Pipelined memory model and
 * reports, per training convolution, the fraction of TensorDash cycles
 * stalled on off-chip traffic plus the compute -> memory crossover:
 * the smallest MAC array that spends the majority of its cycles
 * stalled on DRAM (the suite's FC layers stall a little at any size,
 * so "any stall" would trip at one tile and say nothing).  This
 * is the regime the paper's analytic model hides — once the array
 * outruns the channels, sparse-training gains are bandwidth-bounded.
 */

#include "bench_util.hh"

using namespace tensordash;

namespace {

/** Majority-stalled = the op has crossed into the memory regime. */
constexpr double kStallThreshold = 0.5;

/** Mean per-op stall fraction across the model suite at one config
 * variant (an op index past the phase's op set reads the total). */
double
meanOpStall(const SweepResult &sweep, size_t op, size_t variant)
{
    double sum = 0.0;
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m, 0, variant);
        const OpResult &res = op < r.ops.size() ? r.ops[op] : r.total;
        sum += res.memoryStallFraction();
    }
    return sweep.modelCount() ? sum / (double)sweep.modelCount() : 0.0;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Fig. 22",
                  "memory roofline: MAC throughput vs DRAM bandwidth");
    // Single source for the axis values and the rendered rows.
    const std::vector<int> tile_counts = {1, 2, 4, 8, 16, 32};

    SweepSpec spec;
    spec.models = ModelZoo::paperModels();
    spec.axes = {axis("tiles", tile_counts,
                      [](RunConfig &cfg, int tiles) {
                          cfg.accel.tiles = tiles;
                      })};

    RunConfig cfg = bench::defaultRunConfig(opts);
    cfg.accel.max_sampled_macs = bench::sampleBudget(250000, 60000);
    cfg.accel.memory_model = MemoryModel::Pipelined;
    const double bytes_per_cycle =
        DramModel(cfg.accel.dram).bytesPerCycle(cfg.accel.freq_ghz);
    ModelRunner runner(cfg);

    // One stall column per training-phase op plus the total — the op
    // set drives the table, the strings match the historical header.
    const std::span<const TrainOp> ops =
        phaseOps(WorkloadPhase::Training);
    const size_t ncols = ops.size() + 1; // per-op stalls + total
    bench::sweepFigure(opts, runner, spec,
                       [&](const SweepResult &sweep) {
        Table t;
        std::vector<std::string> header = {"tiles", "MACs/cyc",
                                           "B/cyc"};
        for (TrainOp op : ops)
            header.push_back(std::string(trainOpName(op)) + " stall");
        header.push_back("Total stall");
        header.push_back("speedup");
        t.header(header);
        // First DRAM-limited array size per op (-1 = never in sweep).
        std::vector<int> crossover(ncols, -1);
        for (size_t v = 0; v < sweep.variantCount(); ++v) {
            std::vector<std::string> row = {
                fmtDouble(tile_counts[v], 0),
                fmtDouble(tile_counts[v] * 256.0, 0),
                fmtDouble(bytes_per_cycle, 1)};
            for (size_t op = 0; op < ncols; ++op) {
                double stall = meanOpStall(sweep, op, v);
                row.push_back(fmtPercent(stall));
                if (crossover[op] < 0 && stall >= kStallThreshold)
                    crossover[op] = tile_counts[v];
            }
            row.push_back(fmtSpeedup(sweep.meanSpeedup(0, v)));
            t.row(row);
        }
        std::vector<std::string> cross = {"crossover", "", ""};
        for (size_t op = 0; op < ncols; ++op)
            cross.push_back(crossover[op] < 0
                                ? std::string("none")
                                : fmtDouble(crossover[op], 0) +
                                      " tiles");
        cross.push_back("");
        t.row(cross);
        return t;
    });
    bench::reference(
        "no paper figure: the published evaluation charges DRAM "
        "analytically (latency hidden); the arXiv extension "
        "(2009.00748) and SparseTrain report sparse-training gains "
        "bound by bandwidth once the MAC array is fast enough");
    return 0;
}
