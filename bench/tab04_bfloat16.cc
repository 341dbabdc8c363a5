/**
 * @file
 * Section 4.4 (bfloat16): compute-logic area/power overheads and
 * energy efficiency when the datapath uses bfloat16 arithmetic.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("bfloat16 study",
                  "area/power overheads and energy efficiency");

    ArchGeometry bf16_geom;
    bf16_geom.dtype = DataType::Bf16;
    AreaModel bf16(bf16_geom);
    AreaModel fp32(ArchGeometry{});

    Table t("Compute-logic overheads (TensorDash vs baseline)");
    t.header({"datatype", "area", "power", "full-chip area"});
    auto overhead_row = [&](const char *name, AreaModel &m) {
        t.row({name,
               fmtDouble(m.tensorDashTotal().area_mm2 /
                         m.baselineTotal().area_mm2, 2) + "x",
               fmtDouble(m.tensorDashTotal().power_mw /
                         m.baselineTotal().power_mw, 2) + "x",
               fmtDouble(m.fullChipAreaOverhead(), 4) + "x"});
    };
    overhead_row("fp32", fp32);
    overhead_row("bf16", bf16);
    t.print();
    bf16.table3().print();

    // Energy efficiency across the model suite with bf16 units.
    RunConfig cfg = bench::defaultRunConfig(opts);
    cfg.accel.dtype = DataType::Bf16;
    cfg.accel.max_sampled_macs = bench::sampleBudget(300000, 80000);
    ModelRunner runner(cfg);
    const auto models = ModelZoo::paperModels();

    bench::sweepFigure(opts, runner, models, {},
                       [&](const SweepResult &sweep) {
        Table e("bfloat16 energy efficiency per model");
        e.header({"model", "core", "overall"});
        double core_mean = 0.0, overall_mean = 0.0;
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            const ModelRunResult &r = sweep.at(m);
            e.row({sweep.models[m], fmtSpeedup(r.coreEfficiency()),
                   fmtSpeedup(r.overallEfficiency())});
            core_mean += r.coreEfficiency();
            overall_mean += r.overallEfficiency();
        }
        e.row({"average",
               fmtSpeedup(core_mean / (double)sweep.modelCount()),
               fmtSpeedup(overall_mean / (double)sweep.modelCount())});
        return e;
    });
    bench::reference("bf16 overheads 1.13x area / 1.05x power (vs "
                     "1.09x / 1.02x for fp32); compute logic 1.84x "
                     "and overall 1.43x more energy efficient");
    return 0;
}
