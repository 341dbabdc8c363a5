/**
 * @file
 * Section 4.4 (GCN): a model with virtually no sparsity.  Without
 * power gating TensorDash gains ~1% performance and loses ~0.5%
 * energy efficiency; with the automatic power gating of section 3.5
 * nothing is lost.  The gated run exercises the engine's two-phase
 * observe/run pipeline; gating is a one-axis sweep.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("GCN (no sparsity)",
                  "behaviour on a model with virtually no zeros");

    // Single source for the axis options and the rendered row labels.
    struct GateOption
    {
        const char *name;
        bool gating;
    };
    const GateOption options[] = {{"no power gating", false},
                                  {"with power gating", true}};

    SweepSpec spec;
    spec.models = {ModelZoo::gcn()};
    std::vector<AxisOption> axis_options;
    for (const GateOption &o : options)
        axis_options.push_back({o.name, [o](RunConfig &cfg) {
                                    cfg.accel.power_gating = o.gating;
                                }});
    spec.axes = {axis("power gating", std::move(axis_options))};

    ModelRunner runner(bench::defaultRunConfig(opts));

    bench::sweepFigure(opts, runner, spec,
                       [&](const SweepResult &sweep) {
        Table t;
        t.header({"configuration", "speedup", "core eff.",
                  "overall eff."});
        for (size_t v = 0; v < sweep.variantCount(); ++v) {
            const ModelRunResult &r = sweep.at(0, 0, v);
            t.row({options[v].name, fmtSpeedup(r.speedup()),
                   fmtSpeedup(r.coreEfficiency()),
                   fmtSpeedup(r.overallEfficiency())});
        }
        return t;
    });
    bench::reference("GCN exhibits virtually no sparsity; TensorDash "
                     "still improves performance by ~1% (a few layers "
                     "have ~5% sparsity) and overall energy "
                     "efficiency is only ~0.5% lower than the "
                     "baseline without power gating");
    return 0;
}
