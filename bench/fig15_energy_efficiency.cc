/**
 * @file
 * Fig. 15: energy efficiency of TensorDash relative to the baseline,
 * for the compute logic alone and for the whole system.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Fig. 15", "energy efficiency over the baseline");
    ModelRunner runner(bench::defaultRunConfig(opts));
    const auto models = ModelZoo::paperModels();

    bench::sweepFigure(opts, runner, models, {},
                       [&](const SweepResult &sweep) {
        Table t;
        t.header({"model", "Core Energy Effic.",
                  "Overall Energy Effic."});
        double core_mean = 0.0, overall_mean = 0.0;
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            const ModelRunResult &r = sweep.at(m);
            t.row({sweep.models[m], fmtSpeedup(r.coreEfficiency()),
                   fmtSpeedup(r.overallEfficiency())});
            core_mean += r.coreEfficiency();
            overall_mean += r.overallEfficiency();
        }
        core_mean /= (double)sweep.modelCount();
        overall_mean /= (double)sweep.modelCount();
        t.row({"average", fmtSpeedup(core_mean),
               fmtSpeedup(overall_mean)});
        return t;
    });
    bench::reference("compute logic 1.89x more energy efficient on "
                     "average; 1.6x overall when on-chip and off-chip "
                     "memory accesses are taken into account");
    return 0;
}
