/**
 * @file
 * Fig. 16: energy consumption breakdown (DRAM / core / SRAM) of
 * TensorDash and the baseline, normalised to the baseline total.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    bench::Options opts = bench::parseArgs(argc, argv);
    bench::banner("Fig. 16",
                  "energy breakdown normalised to the baseline");
    ModelRunner runner(bench::defaultRunConfig(opts));
    const auto models = ModelZoo::paperModels();

    bench::sweepFigure(opts, runner, models, {},
                       [&](const SweepResult &sweep) {
        Table t;
        t.header({"model", "arch", "DRAM %", "Core %", "SRAM %",
                  "Total %"});
        for (size_t m = 0; m < sweep.modelCount(); ++m) {
            const ModelRunResult &r = sweep.at(m);
            double base_total = r.energy_base.total();
            auto pct = [&](double j) {
                return fmtDouble(100.0 * j / base_total, 1);
            };
            t.row({sweep.models[m], "TensorDash",
                   pct(r.energy_td.dram_j), pct(r.energy_td.core_j),
                   pct(r.energy_td.sram_j), pct(r.energy_td.total())});
            t.row({"", "Baseline", pct(r.energy_base.dram_j),
                   pct(r.energy_base.core_j), pct(r.energy_base.sram_j),
                   "100.0"});
        }
        return t;
    });
    bench::reference("TensorDash significantly reduces the energy of "
                     "the core, which dominates system energy; DRAM "
                     "and SRAM segments are nearly unchanged (both "
                     "architectures compress off-chip traffic)");
    return 0;
}
