/**
 * @file
 * Fig. 19: TensorDash speedup with 2-deep vs 3-deep staging buffers
 * (the paper reports DenseNet121, SqueezeNet, img2txt, resnet50_DS90
 * and the geomean).
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Fig. 19", "staging buffer depth 2 vs 3");

    SweepSpec spec;
    for (const char *name : {"DenseNet121", "SqueezeNet", "img2txt",
                             "resnet50_DS90"})
        spec.models.push_back(ModelZoo::byName(name));
    spec.axes = {axis("depth", {2, 3},
                      [](RunConfig &cfg, int depth) {
                          cfg.accel.tile.depth = depth;
                      })};

    RunConfig cfg = bench::defaultRunConfig(opts);
    cfg.accel.max_sampled_macs = bench::sampleBudget(400000, 80000);
    ModelRunner runner(cfg);

    bench::sweepFigure(opts, runner, spec,
                       [&](const SweepResult &sweep) {
        Table t;
        t.header({"model", "2-Deep", "3-Deep"});
        for (size_t m = 0; m < sweep.modelCount(); ++m)
            t.row({sweep.models[m],
                   fmtDouble(sweep.at(m, 0, 0).speedup(), 2),
                   fmtDouble(sweep.at(m, 0, 1).speedup(), 2)});
        t.row({"Geom", fmtDouble(sweep.geomeanSpeedup(0, 0), 2),
               fmtDouble(sweep.geomeanSpeedup(0, 1), 2)});
        return t;
    });
    bench::reference("2-deep staging (5 movements/multiplier) yields "
                     "lower but still considerable speedups -- an "
                     "appealing cost/performance point");
    return 0;
}
