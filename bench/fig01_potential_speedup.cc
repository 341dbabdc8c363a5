/**
 * @file
 * Fig. 1: potential speedup from eliminating MACs whose targeted
 * operand is zero, per training convolution and in total, per model.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Fig. 1",
                  "potential work reduction per training convolution");
    ModelRunner runner(bench::defaultRunConfig(opts));
    const auto models = ModelZoo::paperModels();

    bench::sweepFigure(opts, runner, models, {},
                       [&](const SweepResult &sweep) {
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
    });
    bench::reference(
        "average potential ~3x across models; DenseNet121 lowest but "
        "above 1.5x; SqueezeNet above 2x; pruned ResNet50 variants "
        "highest");
    return 0;
}
