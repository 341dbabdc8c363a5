/**
 * @file
 * Table 3: area and power breakdown of TensorDash vs the baseline
 * (65nm synthesis-derived constants), plus the full-chip overhead,
 * and section 4.4's bfloat16 datapath: its compute-logic area/power
 * overheads next to fp32's and its Table 3 breakdown (the bf16 energy
 * efficiency sweep is `td-fig tab04`).
 */

#include "bench_util.hh"

using namespace tensordash;

int
main()
{
    bench::banner("Table 3: area [mm2] and power [mW] breakdown");
    AreaModel model(ArchGeometry{});
    model.table3().print();
    std::printf("on-chip SRAM (AM+BM+CM): %.0f mm2, scratchpads: "
                "%.0f mm2\n",
                model.onChipSramArea(), model.scratchpadArea());
    std::printf("full-chip area overhead incl. memories: %.4fx\n",
                model.fullChipAreaOverhead());
    bench::reference(
        "compute cores 30.41 mm2 / 13,910 mW; TensorDash total 33.44 "
        "mm2 / 14,205 mW = 1.09x area, 1.02x power; with on-chip "
        "memories the area overhead becomes imperceptible");

    bench::banner("bfloat16 study: area/power overheads");
    ArchGeometry bf16_geom;
    bf16_geom.dtype = DataType::Bf16;
    AreaModel bf16(bf16_geom);
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
    overhead_row("fp32", model);
    overhead_row("bf16", bf16);
    t.print();
    bf16.table3().print();
    bench::reference("bf16 overheads 1.13x area / 1.05x power (vs "
                     "1.09x / 1.02x for fp32)");
    return 0;
}
