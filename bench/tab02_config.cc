/**
 * @file
 * Table 2: baseline and TensorDash default configurations.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main()
{
    bench::banner("Table 2: default configurations");
    AcceleratorConfig cfg;
    ArchGeometry g = cfg.geometry();

    Table t("TensorDash and Baseline");
    t.header({"Parameter", "Value", "Parameter", "Value"});
    t.row({"Tile", "4x4 PEs", "# of Tiles", std::to_string(cfg.tiles)});
    t.row({"Total PEs",
           std::to_string(cfg.tiles * g.rows * g.cols),
           "AM SRAM", "256KBx4 Banks/Tile"});
    t.row({"PE MACs/Cycle",
           std::to_string(g.lanes) + " FP32",
           "BM SRAM", "256KBx4 Banks/Tile"});
    t.row({"Total MACs/cycle",
           std::to_string(cfg.tiles * g.rows * g.cols * g.lanes),
           "CM SRAM", "256KBx4 Banks/Tile"});
    t.row({"Staging Buff. Depth", std::to_string(g.depth),
           "Scratchpads", "1KBx3 Banks each"});
    t.row({"Transposer Buff.", "1KB", "Transposers",
           std::to_string(g.transposers)});
    t.row({"Tech Node", "65nm", "Frequency",
           fmtDouble(cfg.freq_ghz * 1000.0, 0) + " MHz"});
    DramModel dram(cfg.dram);
    t.row({"Off-Chip Memory",
           "16GB 4-channel LPDDR4-3200",
           "Peak BW",
           fmtDouble(dram.bandwidthBytesPerSec() / 1e9, 1) + " GB/s"});
    t.print();
    return 0;
}
