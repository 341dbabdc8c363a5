/**
 * @file
 * Fig. 18: TensorDash speedup vs PE columns per tile (rows fixed at
 * 4).  Columns share the row schedule, so performance barely moves;
 * slight drops come from fragmentation in layer dimensions.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Fig. 18",
                  "speedup vs PE columns per tile (rows = 4)");

    SweepSpec spec;
    spec.models = ModelZoo::paperModels();
    spec.axes = {axis("cols", {4, 16},
                      [](RunConfig &cfg, int cols) {
                          cfg.accel.tile.cols = cols;
                      })};

    RunConfig cfg = bench::defaultRunConfig(opts);
    cfg.accel.max_sampled_macs = bench::sampleBudget(250000, 60000);
    ModelRunner runner(cfg);

    bench::sweepFigure(opts, runner, spec,
                       [&](const SweepResult &sweep) {
        Table t;
        t.header({"model", "4 Columns", "16 Columns"});
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            std::vector<std::string> row = {sweep.models[m]};
            for (size_t v = 0; v < sweep.variantCount(); ++v)
                row.push_back(fmtDouble(sweep.at(m, 0, v).speedup(),
                                        2));
            t.row(row);
        }
        std::vector<std::string> mean_row = {"average"};
        for (size_t v = 0; v < sweep.variantCount(); ++v)
            mean_row.push_back(fmtDouble(sweep.meanSpeedup(0, v), 2));
        t.row(mean_row);
        return t;
    });
    bench::reference("increasing columns scales throughput to 16K "
                     "MACs/cycle with little effect on speedup; slight "
                     "drops are due predominantly to fragmentation");
    return 0;
}
