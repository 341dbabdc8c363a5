/**
 * @file
 * Fig. 17: TensorDash speedup vs the number of PE rows per tile
 * (columns fixed at 4).  More rows sharing one window means more
 * frequent work-imbalance stalls.
 *
 * One declarative sweep: the row count is a config axis, so all five
 * geometries expand into a single task grid that caches and
 * load-balances as a unit.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Fig. 17", "speedup vs PE rows per tile (cols = 4)");

    const SweepSpec spec = bench::fig17Spec();

    RunConfig cfg = bench::defaultRunConfig(opts);
    cfg.accel.max_sampled_macs = bench::fig17SampleBudget();
    ModelRunner runner(cfg);

    bench::sweepFigure(opts, runner, spec,
                       [&](const SweepResult &sweep) {
        Table t;
        t.header({"model", "1Row", "2Rows", "4Rows", "8Rows",
                  "16Rows"});
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
    bench::reference("average speedup decreases from 2.1x at 1 row to "
                     "1.72x at 16 rows: all rows wait for the one with "
                     "the densest value stream");
    return 0;
}
