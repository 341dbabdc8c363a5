#include "core/figures.hh"

#include <string>
#include <vector>

#include "common/env.hh"

namespace tensordash {

bool
fastMode()
{
    const std::string v = env::stringKnob("TD_FAST");
    return !v.empty() && v[0] == '1';
}

uint64_t
paperSampleBudget()
{
    return fastMode() ? 120000 : 600000;
}

Table
fig13Table(const SweepResult &sweep)
{
    const std::span<const TrainOp> ops =
        phaseOps(WorkloadPhase::Training);
    Table t;
    std::vector<std::string> header{"model"};
    for (TrainOp op : ops)
        header.push_back(trainOpName(op));
    header.push_back("Total");
    t.header(header);
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m);
        std::vector<std::string> row{sweep.models[m]};
        for (const OpResult &opr : r.ops)
            row.push_back(fmtSpeedup(opr.speedup()));
        row.push_back(fmtSpeedup(r.speedup()));
        t.row(row);
    }
    std::vector<std::string> blanks(ops.size(), "");
    std::vector<std::string> avg{"average"};
    avg.insert(avg.end(), blanks.begin(), blanks.end());
    avg.push_back(fmtSpeedup(sweep.meanSpeedup()));
    t.row(avg);
    std::vector<std::string> geo{"geomean"};
    geo.insert(geo.end(), blanks.begin(), blanks.end());
    geo.push_back(fmtSpeedup(sweep.geomeanSpeedup()));
    t.row(geo);
    return t;
}

} // namespace tensordash
