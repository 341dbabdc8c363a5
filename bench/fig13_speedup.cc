/**
 * @file
 * Fig. 13: speedup of TensorDash over the baseline accelerator, per
 * model and per training convolution.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Fig. 13", "TensorDash speedup over the baseline");
    ModelRunner runner(bench::defaultRunConfig(opts));
    const auto models = ModelZoo::paperModels();

    bench::sweepFigure(opts, runner, models, {}, fig13Table);

    bench::reference(
        "1.95x average speedup; never slows down execution; "
        "DenseNet121's WxG speedup is negligible (its batch-norm "
        "layers absorb the gradient sparsity)");
    return 0;
}
