#include "figures.hh"

#include <fstream>
#include <sstream>

namespace perfbench {

using namespace tensordash;

service::JobSpec
fig13Job(uint64_t seed, bool phase_axis, bool estimate)
{
    service::JobSpec job;
    job.models = ModelZoo::paperModelNames();
    job.seed = seed;
    job.max_sampled_macs = 600000;
    job.memory_model = (uint8_t)MemoryModel::Analytic;
    if (estimate)
        job.fidelity = (uint8_t)Fidelity::Estimate;
    if (phase_axis)
        job.axes.push_back({service::AxisKind::Phase, {0, 1}});
    return job;
}

service::JobSpec
fig22Job(uint64_t seed)
{
    service::JobSpec job;
    job.models = ModelZoo::paperModelNames();
    job.seed = seed;
    job.max_sampled_macs = 250000;
    job.memory_model = (uint8_t)MemoryModel::Pipelined;
    job.axes.push_back({service::AxisKind::Tiles,
                        std::vector<int64_t>(kFig22Tiles.begin(),
                                             kFig22Tiles.end())});
    return job;
}

Table
renderFig13(const SweepResult &sweep, size_t variant)
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
        const ModelRunResult &r = sweep.at(m, 0, variant);
        std::vector<std::string> row{sweep.models[m]};
        for (const OpResult &opr : r.ops)
            row.push_back(fmtSpeedup(opr.speedup()));
        row.push_back(fmtSpeedup(r.speedup()));
        t.row(row);
    }
    std::vector<std::string> blanks(ops.size(), "");
    std::vector<std::string> avg{"average"};
    avg.insert(avg.end(), blanks.begin(), blanks.end());
    avg.push_back(fmtSpeedup(sweep.meanSpeedup(0, variant)));
    t.row(avg);
    std::vector<std::string> geo{"geomean"};
    geo.insert(geo.end(), blanks.begin(), blanks.end());
    geo.push_back(fmtSpeedup(sweep.geomeanSpeedup(0, variant)));
    t.row(geo);
    return t;
}

namespace {

/** Mean per-op stall fraction across the suite at one variant (an op
 * index past the phase's op set reads the total). */
double
meanOpStall(const SweepResult &sweep, size_t op, size_t variant)
{
    double sum = 0.0;
    for (size_t m = 0; m < sweep.modelCount(); ++m) {
        const ModelRunResult &r = sweep.at(m, 0, variant);
        const OpResult &res = op < r.ops.size() ? r.ops[op] : r.total;
        sum += res.memoryStallFraction();
    }
    return sweep.modelCount() ? sum / (double)sweep.modelCount() : 0.0;
}

} // namespace

Table
renderFig22(const SweepResult &sweep)
{
    constexpr double kStallThreshold = 0.5;
    const RunConfig base = fig22Job(kGoldenSeed).baseConfig();
    const double bytes_per_cycle =
        DramModel(base.accel.dram).bytesPerCycle(base.accel.freq_ghz);
    const std::span<const TrainOp> ops =
        phaseOps(WorkloadPhase::Training);
    const size_t ncols = ops.size() + 1;
    Table t;
    std::vector<std::string> header = {"tiles", "MACs/cyc", "B/cyc"};
    for (TrainOp op : ops)
        header.push_back(std::string(trainOpName(op)) + " stall");
    header.push_back("Total stall");
    header.push_back("speedup");
    t.header(header);
    std::vector<int> crossover(ncols, -1);
    for (size_t v = 0; v < sweep.variantCount(); ++v) {
        std::vector<std::string> row = {
            fmtDouble(kFig22Tiles[v], 0),
            fmtDouble(kFig22Tiles[v] * 256.0, 0),
            fmtDouble(bytes_per_cycle, 1)};
        for (size_t op = 0; op < ncols; ++op) {
            double stall = meanOpStall(sweep, op, v);
            row.push_back(fmtPercent(stall));
            if (crossover[op] < 0 && stall >= kStallThreshold)
                crossover[op] = kFig22Tiles[v];
        }
        row.push_back(fmtSpeedup(sweep.meanSpeedup(0, v)));
        t.row(row);
    }
    std::vector<std::string> cross = {"crossover", "", ""};
    for (size_t op = 0; op < ncols; ++op)
        cross.push_back(crossover[op] < 0
                            ? std::string("none")
                            : fmtDouble(crossover[op], 0) + " tiles");
    cross.push_back("");
    t.row(cross);
    return t;
}

std::string
checkGolden(const std::string &csv, const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot read golden '" + path + "'";
    std::ostringstream golden;
    golden << in.rdbuf();
    if (golden.str() != csv)
        return "table differs from golden '" + path + "':\n" + csv;
    return "";
}

std::vector<uint8_t>
cellBytes(const OpCellResult &cell)
{
    ByteWriter w;
    cell.serialize(w);
    return w.data();
}

size_t
cellMismatches(const SweepResult &a, const SweepResult &b)
{
    size_t cells = a.cellCount();
    if (a.fingerprint != b.fingerprint ||
        a.taskCount() != b.taskCount() || !a.complete() ||
        !b.complete())
        return cells ? cells : 1;
    size_t bad = 0;
    for (size_t s = 0; s < a.taskCount(); ++s) {
        const auto &ca = a.layer_results[s].cells;
        const auto &cb = b.layer_results[s].cells;
        if (ca.size() != cb.size()) {
            bad += ca.size();
            continue;
        }
        for (size_t j = 0; j < ca.size(); ++j)
            bad += cellBytes(ca[j]) != cellBytes(cb[j]);
    }
    return bad;
}

size_t
phaseMismatches(const SweepResult &phase, const SweepResult &ref)
{
    const size_t n = ref.taskCount();
    if (phase.variantCount() != 2 || phase.taskCount() != 2 * n ||
        !phase.complete() || !ref.complete())
        return phase.cellCount() ? phase.cellCount() : 1;
    size_t bad = 0;
    for (size_t s = 0; s < n; ++s) {
        const auto &r = ref.layer_results[s].cells;
        const auto &train = phase.layer_results[s].cells;
        const auto &infer = phase.layer_results[n + s].cells;
        if (train.size() != r.size() || infer.size() != 1 ||
            r.empty()) {
            bad += train.size() + infer.size();
            continue;
        }
        for (size_t j = 0; j < r.size(); ++j)
            bad += cellBytes(train[j]) != cellBytes(r[j]);
        bad += cellBytes(infer[0]) != cellBytes(r[0]);
    }
    return bad;
}

} // namespace perfbench
