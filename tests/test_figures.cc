/**
 * @file
 * Contract of the figure registry (core/figures.hh): unique names,
 * rejected unknown names, a plannable grid behind every entry, and a
 * valid, byte-stable JobSpec behind exactly the figures td-sweep
 * serves.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "core/figures.hh"

namespace tensordash {
namespace {

TEST(FigureRegistry, NamesAreUniqueAndUnknownNamesAreRejected)
{
    std::set<std::string> names;
    for (const FigureDef &f : figureRegistry()) {
        EXPECT_TRUE(names.insert(f.name).second) << f.name;
        EXPECT_EQ(findFigure(f.name), &f);
        EXPECT_NE(std::string(f.title), "");
        EXPECT_NE(std::string(f.reference), "");
    }
    EXPECT_EQ(names.size(), 14u);
    EXPECT_EQ(findFigure("fig99"), nullptr);
    EXPECT_EQ(findFigure(""), nullptr);
}

TEST(FigureRegistry, EveryGridPlansCells)
{
    for (const FigureDef &f : figureRegistry()) {
        const FigureGrid grid = f.grid();
        const std::vector<GridCellInfo> plan =
            ModelRunner(grid.base).planSweep(grid.spec);
        EXPECT_FALSE(plan.empty()) << f.name;
    }
}

TEST(FigureRegistry, JobBackedGridsValidateAndRoundTrip)
{
    for (const FigureDef &f : figureRegistry()) {
        const FigureGrid grid = f.grid();
        if (!grid.job)
            continue;
        EXPECT_EQ(grid.job->validate(), "") << f.name;
        ByteWriter first;
        grid.job->serialize(first);
        service::JobSpec back;
        ByteReader r(first.data());
        ASSERT_TRUE(back.deserialize(r)) << f.name;
        ByteWriter second;
        back.serialize(second);
        EXPECT_EQ(first.data(), second.data()) << f.name;
    }
}

TEST(FigureRegistry, SweepServesExactlyTheJobBackedFigures)
{
    // td-sweep keeps no figure list of its own: it serves a name iff
    // the registry entry's grid carries a JobSpec.  That set is every
    // figure except the three whose grid JobSpec cannot express (a
    // synthesis hook, a bf16 datapath, the interconnect axis).
    std::set<std::string> job_backed;
    for (const FigureDef &f : figureRegistry())
        if (f.grid().job)
            job_backed.insert(f.name);
    const std::set<std::string> expected = {
        "fig01", "fig13", "fig14", "fig15", "fig16", "fig17",
        "fig18", "fig19", "fig21", "fig22", "fig23"};
    EXPECT_EQ(job_backed, expected);
}

} // namespace
} // namespace tensordash
