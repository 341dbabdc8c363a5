#ifndef TENSORDASH_CORE_FIGURES_HH_
#define TENSORDASH_CORE_FIGURES_HH_

/**
 * @file
 * The figure registry: every sweep-backed paper figure (and the
 * arXiv-extension figures) as one FigureDef, so the td-fig driver and
 * the td-sweep client run the same grids and render byte-identical
 * tables (and hit the same goldens) from one source.
 */

#include <optional>
#include <span>
#include <string_view>

#include "common/table.hh"
#include "core/runner.hh"
#include "service/job_spec.hh"

namespace tensordash {

/** True when TD_FAST=1 requests reduced sampling. */
bool fastMode();

/** What one figure simulates: a base configuration and its sweep. */
struct FigureGrid
{
    /** Base RunConfig; execution knobs (threads, cache_dir) are left
     * at their defaults for the driver to fill. */
    RunConfig base;

    SweepSpec spec;

    /** The grid's wire form when a JobSpec can express it (base and
     * spec are then built from it, and td-sweepd can serve the
     * figure); empty for grids that need a synthesis hook, a datapath
     * type or an axis JobSpec's closed registry lacks. */
    std::optional<service::JobSpec> job;
};

/** One registered figure. */
struct FigureDef
{
    /** Registry key, e.g. "fig13" (td-fig / td-sweep argument). */
    const char *name;

    /** Banner, e.g. "Fig. 13: TensorDash speedup over the baseline". */
    const char *title;

    /** Paper-reference footnote printed after the table. */
    const char *reference;

    /** Build the grid; sampling budgets follow TD_FAST. */
    FigureGrid (*grid)();

    /** Render a complete sweep of grid() as the figure's table (the
     * table --csv writes). */
    Table (*render)(const SweepResult &sweep);
};

/** Every registered figure, in paper order. */
std::span<const FigureDef> figureRegistry();

/** The figure named @p name, or nullptr. */
const FigureDef *findFigure(std::string_view name);

} // namespace tensordash

#endif // TENSORDASH_CORE_FIGURES_HH_
