/**
 * @file
 * td-fig: regenerate one registered paper figure.
 *
 *   td-fig [--threads N] [--reps N] [--csv PATH] [--json PATH]
 *          [--cache-dir DIR] [--estimate] FIGURE
 *
 * FIGURE names a core/figures.hh registry entry (fig01, fig13 ...
 * fig23, tab04, ablation-interconnect; --help lists them).  The
 * figure's grid runs as one declarative sweep on the shared pool,
 * followed by the [cache]/[synth] counter lines, the table, a
 * [rep] timing line per repetition and the paper reference.
 */

#include "bench_util.hh"

using namespace tensordash;

int
main(int argc, char **argv)
{
    std::string name;
    bench::Options opts = bench::parseArgs(argc, argv, &name);
    const FigureDef *fig = findFigure(name);
    if (!fig) {
        std::fprintf(stderr, "%s: unknown figure '%s'\n", argv[0],
                     name.c_str());
        bench::usage(argv[0], stderr, true);
        return 1;
    }
    bench::banner(fig->title);
    FigureGrid grid = fig->grid();
    bench::applyOptions(grid.base, opts);
    const ModelRunner runner(grid.base);
    bench::runFigure(opts, [&] {
        SweepResult sweep = runner.runSweep(grid.spec);
        bench::reportCache(sweep);
        return fig->render(sweep);
    });
    bench::reference(fig->reference);
    return 0;
}
