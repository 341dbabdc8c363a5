#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "figures.hh"

namespace perfbench {

using namespace tensordash;

namespace {

using Clock = std::chrono::steady_clock;

double
usSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::micro>(Clock::now() - t0)
        .count();
}

/** One layer slot of the grid, in the runner's serial order. */
struct Slot
{
    size_t variant;
    size_t model;
    size_t layer;
    double progress;
    size_t first_cell;
};

/** Operand accounting of one op, as Accelerator::runConvOp/runFcOp
 * charge it to the memory system. */
struct OpTraffic
{
    uint64_t in0_nz = 0, in0_total = 0, in1_nz = 0, in1_total = 0;
    uint64_t transposed = 0;
};

LoweredOp
lowerOp(const Dataflow &df, const AcceleratorConfig &cfg,
        const LayerSpec &layer, const LayerTensors &t, TrainOp op,
        GateOperand *gate)
{
    LoweredOp lowered;
    switch (op) {
      case TrainOp::Forward:
        lowered = layer.fc
            ? df.lowerFcForward(t.acts, t.weights, cfg.fwd_side)
            : df.lowerForward(t.acts, t.weights, t.spec, cfg.fwd_side);
        *gate = lowered.b_is_default_side ? GateOperand::Acts
                                          : GateOperand::Weights;
        break;
      case TrainOp::BackwardData:
        lowered = layer.fc
            ? df.lowerFcBackwardData(t.grads, t.weights,
                                     t.acts.shape(), cfg.bwd_data_side)
            : df.lowerBackwardData(t.grads, t.weights, t.acts.shape(),
                                   t.spec, cfg.bwd_data_side);
        *gate = lowered.b_is_default_side ? GateOperand::Grads
                                          : GateOperand::Weights;
        break;
      case TrainOp::BackwardWeights:
        lowered = layer.fc
            ? df.lowerFcBackwardWeights(t.grads, t.acts, cfg.wg_side)
            : df.lowerBackwardWeights(t.grads, t.acts,
                                      t.weights.shape().h,
                                      t.weights.shape().w, t.spec,
                                      cfg.wg_side);
        *gate = lowered.wg_b_is_gradients ? GateOperand::Grads
                                          : GateOperand::Acts;
        break;
    }
    return lowered;
}

OpTraffic
opTraffic(const LayerTensors &t, TrainOp op)
{
    OpTraffic tr;
    const Tensor &in0 = op == TrainOp::Forward ? t.acts : t.grads;
    const Tensor &in1 =
        op == TrainOp::BackwardWeights ? t.acts : t.weights;
    tr.in0_nz = in0.nonzeros();
    tr.in0_total = in0.size();
    tr.in1_nz = in1.nonzeros();
    tr.in1_total = in1.size();
    if (op == TrainOp::BackwardData)
        tr.transposed = t.weights.size();
    else if (op == TrainOp::BackwardWeights)
        tr.transposed = t.grads.size();
    return tr;
}

/** Charge one op's off-chip traffic: energy-only under Analytic,
 * pipelined cycle resolution under Pipelined. */
void
applyMemory(const AcceleratorConfig &cfg, const OpTraffic &tr,
            uint64_t out_total, double out_sparsity, OpResult &r)
{
    const int vb = dataTypeBytes(cfg.dtype);
    const double read =
        CompressingDma::demandBytes(tr.in0_nz, tr.in0_total, vb) +
        CompressingDma::demandBytes(tr.in1_nz, tr.in1_total, vb);
    const auto out_nz = (uint64_t)((double)out_total *
                                   std::clamp(1.0 - out_sparsity, 0.0,
                                              1.0));
    const double write =
        CompressingDma::demandBytes(out_nz, out_total, vb);
    const double groups =
        (double)tr.transposed / (kGroupDim * kGroupDim);
    r.activity.dram_read_bytes = read;
    r.activity.dram_write_bytes = write;
    r.activity.transposer_groups = groups;
    if (cfg.memory_model == MemoryModel::Analytic)
        return;
    MemoryPipeline pipeline(cfg.mem_pipeline, cfg.dram, cfg.freq_ghz);
    StageDemands stages;
    stages.dma_in_bytes = read;
    stages.transpose_groups = groups;
    stages.dma_out_bytes = write;
    stages.compute_cycles = r.base_cycles;
    PipelineTiming base = pipeline.resolve(stages);
    stages.compute_cycles = r.td_cycles;
    PipelineTiming td = pipeline.resolve(stages);
    r.base_mem_stall_cycles = base.mem_stall_cycles;
    r.td_mem_stall_cycles = td.mem_stall_cycles;
    r.memory_bound = td.memory_bound;
    r.base_cycles = base.cycles;
    r.td_cycles = td.cycles;
    r.activity.cycles = r.td_cycles;
    r.activity.dram_busy_cycles = td.dram_busy_cycles;
}

} // namespace

ReplayResult
replaySweep(const service::JobSpec &job, Tracer *tracer, int threads,
            const std::string &store_dir)
{
    if (tracer && threads != 1)
        throw std::invalid_argument("a traced replay runs serially");
    RunConfig base = job.baseConfig();
    base.threads = threads;
    base.cache = false;
    const SweepSpec spec = job.toSweepSpec();
    const std::vector<GridCellInfo> plan =
        ModelRunner(base).planSweep(spec);

    std::vector<RunConfig> configs;
    for (size_t v = 0; v < spec.variantCount(); ++v) {
        configs.push_back(spec.variantConfig(base, v));
        if (configs.back().fidelity != Fidelity::Exact ||
            configs.back().batch_override != 0)
            throw std::invalid_argument(
                "the replay covers exact-tier grids at model batch");
    }
    const std::vector<double> points = spec.progress_points.empty()
        ? std::vector<double>{base.progress}
        : spec.progress_points;
    const size_t nmodels = spec.models.size();

    // The runner's serial layout and per-(variant, model) Rng forks;
    // every cell's TaskKey must match the plan's, or the replay would
    // not describe the grid the sweep ran.
    std::vector<std::vector<Rng>> rngs;
    std::vector<Slot> slots;
    size_t cell = 0;
    for (size_t v = 0; v < configs.size(); ++v) {
        for (size_t m = 0; m < nmodels; ++m) {
            const ModelProfile &model = spec.models[m];
            Rng rng(configs[v].seed * 0x2545f4914f6cdd1dull + 1);
            rngs.emplace_back();
            for (size_t l = 0; l < model.layers.size(); ++l)
                rngs.back().push_back(rng.fork());
            for (double p : points) {
                for (size_t l = 0; l < model.layers.size(); ++l) {
                    slots.push_back({v, m, l, p, cell});
                    for (TrainOp op : phaseOps(configs[v].phase)) {
                        if (cell >= plan.size() ||
                            plan[cell].slot != slots.size() - 1 ||
                            !(plan[cell].key ==
                              TaskKey::forOp(configs[v], model, l, op,
                                             p)))
                            throw std::runtime_error(
                                "replay grid diverges from planSweep");
                        ++cell;
                    }
                }
            }
        }
    }
    if (cell != plan.size())
        throw std::runtime_error("replay grid diverges from planSweep");

    // One synthesis per SynthKey, in first-appearance order.
    std::vector<std::vector<size_t>> groups;
    std::unordered_map<uint64_t, size_t> group_of;
    for (size_t s = 0; s < slots.size(); ++s) {
        uint64_t key = plan[slots[s].first_cell].synth_key;
        auto [it, fresh] = group_of.emplace(key, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(s);
    }

    ReplayResult out;
    out.cells.resize(plan.size());
    out.est_cost.resize(plan.size());
    out.cell_s.resize(plan.size());
    out.cycle_err.resize(plan.size());
    std::vector<uint64_t> cell_jobs(plan.size(), 0);
    std::vector<double> group_elems(groups.size(), 0.0);
    for (size_t c = 0; c < plan.size(); ++c)
        out.est_cost[c] = plan[c].est_cost;

    ResultStore store;
    const bool use_store = !store_dir.empty();

    auto replayGroup = [&](size_t g) {
        MaybeSpan task(tracer, "core.runner.task");
        const Slot &first = slots[groups[g][0]];
        const ModelProfile &model = spec.models[first.model];
        const LayerSpec &layer = model.layers[first.layer];
        LayerTensors t;
        {
            MaybeSpan s(tracer, "models.synthesize");
            Rng rng = rngs[first.variant * nmodels + first.model]
                          [first.layer];
            t = ModelZoo::synthesize(model, layer, first.progress, rng);
        }
        group_elems[g] = (double)(t.acts.size() + t.weights.size() +
                                  t.grads.size());
        double act_sp = 0.0, grad_sp = 0.0, weight_sp = 0.0;
        {
            MaybeSpan s(tracer, "tensor.sparsity");
            act_sp = t.acts.sparsity();
            weight_sp = t.weights.sparsity();
            grad_sp = t.grads.sparsity();
        }
        const CellSparsity expected =
            effectiveCellSparsity(model, first.layer, first.progress);

        for (size_t s : groups[g]) {
            const Slot &slot = slots[s];
            const RunConfig &cfg = configs[slot.variant];
            AcceleratorConfig accel_cfg = cfg.accel;
            accel_cfg.wg_side = model.wg_side;
            Accelerator accel(accel_cfg);
            if (cfg.accel.power_gating) {
                GateObservations obs;
                obs.sparsity["acts"] = act_sp;
                obs.sparsity["grads"] = grad_sp;
                obs.sparsity["weights"] = weight_sp;
                accel.powerGate().freezeFrom(obs);
            }
            const Dataflow dataflow(accel_cfg.dataflow(false));
            const OpEstimator estimator(accel_cfg);
            double out_sp[3] = {0.0, 0.0, 0.0};
            out_sp[(int)TrainOp::Forward] = act_sp;
            out_sp[(int)TrainOp::BackwardData] = grad_sp;
            double est_out_sp[3] = {0.0, 0.0, 0.0};
            est_out_sp[(int)TrainOp::Forward] = expected.act;
            est_out_sp[(int)TrainOp::BackwardData] = expected.grad;

            std::span<const TrainOp> ops = phaseOps(cfg.phase);
            for (size_t j = 0; j < ops.size(); ++j) {
                const TrainOp op = ops[j];
                const size_t c = slot.first_cell + j;
                const TaskKey key = plan[c].key;
                OpCellResult &res = out.cells[c];
                MaybeSpan cell_span(tracer, "core.runner.cell",
                                    (int64_t)c);
                if (use_store) {
                    MaybeSpan s(tracer, "core.result_store.lookup",
                                (int64_t)c);
                    OpCellResult probe;
                    auto t0 = Clock::now();
                    store.lookup(key, &probe, store_dir);
                    out.lookup_us.push_back(usSince(t0));
                }
                const auto sim0 = Clock::now();
                GateOperand gate = GateOperand::None;
                LoweredOp lowered;
                {
                    MaybeSpan s(tracer, "sim.dataflow.lower",
                                (int64_t)c);
                    lowered =
                        lowerOp(dataflow, accel_cfg, layer, t, op, &gate);
                }
                cell_jobs[c] = lowered.jobs.size();
                {
                    MaybeSpan s(tracer, "sim.tile.run", (int64_t)c);
                    res.op = accel.runOp(lowered, gate, 1);
                }
                {
                    MaybeSpan s(tracer, "sim.memory.apply", (int64_t)c);
                    applyMemory(accel_cfg, opTraffic(t, op),
                                lowered.out_shape.size(),
                                out_sp[(int)op], res.op);
                }
                out.cell_s[c] = usSince(sim0) * 1e-6;
                {
                    MaybeSpan s(tracer, "sim.energy", (int64_t)c);
                    res.energy_base = accel.energy(res.op, false);
                    res.energy_td = accel.energy(res.op, true);
                }
                if (use_store) {
                    MaybeSpan s(tracer, "core.result_store.insert",
                                (int64_t)c);
                    auto t0 = Clock::now();
                    store.insert(key, res, store_dir);
                    out.insert_us.push_back(usSince(t0));
                }
                const OpEstimate e = estimator.estimateOp(
                    layer, model.batch, op, expected,
                    est_out_sp[(int)op]);
                out.cycle_err[c] = res.op.td_cycles > 0.0
                    ? std::fabs(e.op.td_cycles - res.op.td_cycles) /
                          res.op.td_cycles
                    : 0.0;
            }
        }
    };

    if (threads == 1) {
        for (size_t g = 0; g < groups.size(); ++g)
            replayGroup(g);
    } else {
        if (use_store)
            throw std::invalid_argument(
                "a parallel replay cannot time the result store");
        ThreadPool::shared().parallelFor(groups.size(), replayGroup,
                                         threads);
    }

    out.synth_calls = groups.size();
    for (double e : group_elems)
        out.synth_elems += e;
    for (uint64_t j : cell_jobs)
        out.tile_jobs += j;
    out.store = store.counters();
    return out;
}

size_t
replayMismatches(const ReplayResult &replay, const SweepResult &sweep)
{
    if (!sweep.complete() || sweep.cellCount() != replay.cells.size())
        return replay.cells.empty() ? 1 : replay.cells.size();
    size_t bad = 0;
    size_t c = 0;
    for (const LayerResult &slot : sweep.layer_results)
        for (const OpCellResult &cell : slot.cells)
            bad += cellBytes(cell) != cellBytes(replay.cells[c++]);
    return bad;
}

} // namespace perfbench
