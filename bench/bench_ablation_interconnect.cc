/**
 * @file
 * Ablation: how much of TensorDash's benefit comes from each piece of
 * the sparse interconnect (DESIGN.md section 3).  Compares dense-only
 * (no movement), lookahead-only, the paper's 8-option pattern, a full
 * crossbar (idealised), and the Auto side policy that may schedule the
 * weight side for pruned models.  The five design points are one
 * config axis of a declarative sweep, so the whole ablation runs as a
 * single cached task grid.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Interconnect ablation",
                  "movement options vs speedup (geomean over suite)");

    struct Variant
    {
        const char *name;
        InterconnectKind kind;
        FwdSide fwd;
        BwdDataSide bwd;
    };
    const Variant variants[] = {
        {"dense-only (baseline front end)", InterconnectKind::DenseOnly,
         FwdSide::Activations, BwdDataSide::Gradients},
        {"lookahead-only", InterconnectKind::LookaheadOnly,
         FwdSide::Activations, BwdDataSide::Gradients},
        {"paper (2 lookahead + 5 lookaside)", InterconnectKind::Paper,
         FwdSide::Activations, BwdDataSide::Gradients},
        {"paper + Auto side policy", InterconnectKind::Paper,
         FwdSide::Auto, BwdDataSide::Auto},
        {"full crossbar (idealised)", InterconnectKind::Crossbar,
         FwdSide::Activations, BwdDataSide::Gradients},
    };

    SweepSpec spec;
    spec.models = ModelZoo::paperModels();
    std::vector<AxisOption> options;
    for (const Variant &v : variants)
        options.push_back({v.name, [v](RunConfig &cfg) {
                               cfg.accel.tile.interconnect = v.kind;
                               cfg.accel.fwd_side = v.fwd;
                               cfg.accel.bwd_data_side = v.bwd;
                           }});
    spec.axes = {axis("interconnect", std::move(options))};

    RunConfig cfg = bench::defaultRunConfig(opts);
    cfg.accel.max_sampled_macs = bench::sampleBudget(150000, 50000);
    ModelRunner runner(cfg);

    bench::sweepFigure(opts, runner, spec,
                       [&](const SweepResult &sweep) {
        Table t;
        t.header({"interconnect", "geomean speedup"});
        for (size_t v = 0; v < sweep.variantCount(); ++v)
            t.row({variants[v].name,
                   fmtSpeedup(sweep.geomeanSpeedup(0, v))});
        return t;
    });
    bench::reference("the paper argues the restricted 8-option "
                     "interconnect captures most of an unrestricted "
                     "crossbar's benefit at a fraction of the cost; "
                     "lookaside options matter because they balance "
                     "work across lanes");
    return 0;
}
