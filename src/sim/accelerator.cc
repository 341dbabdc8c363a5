#include "sim/accelerator.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"
#include "sim/memory/compressing_dma.hh"
#include "sim/memory/transposer.hh"

namespace tensordash {

void
AcceleratorConfig::hashInto(FnvHasher &h) const
{
    h.i64(tiles);
    tile.hashInto(h);
    h.i64((int)dtype);
    h.f64(freq_ghz);
    dram.hashInto(h);
    energy.hashInto(h);
    h.i64((int)memory_model);
    mem_pipeline.hashInto(h);
    h.u64(max_sampled_macs);
    h.u64(seed);
    h.b(power_gating);
    h.f64(gate_min_sparsity);
    h.i64((int)fwd_side);
    h.i64((int)bwd_data_side);
    h.i64((int)wg_side);
}

uint64_t
AcceleratorConfig::fingerprint() const
{
    FnvHasher h;
    hashInto(h);
    return h.value();
}

void
OpResult::serialize(ByteWriter &w) const
{
    w.u8((uint8_t)op);
    w.f64(base_cycles);
    w.f64(td_cycles);
    w.f64(base_mem_stall_cycles);
    w.f64(td_mem_stall_cycles);
    w.b(memory_bound);
    w.f64(b_nonzero_slots);
    w.f64(b_total_slots);
    w.f64(mac_slots);
    activity.serialize(w);
    w.b(gated);
}

void
OpResult::deserialize(ByteReader &r)
{
    uint8_t op_byte = r.u8();
    if (op_byte > (uint8_t)TrainOp::BackwardWeights) {
        r.fail(); // never written by serialize()
        return;
    }
    op = (TrainOp)op_byte;
    base_cycles = r.f64();
    td_cycles = r.f64();
    base_mem_stall_cycles = r.f64();
    td_mem_stall_cycles = r.f64();
    memory_bound = r.b();
    b_nonzero_slots = r.f64();
    b_total_slots = r.f64();
    mac_slots = r.f64();
    activity.deserialize(r);
    gated = r.b();
}

Accelerator::Accelerator(const AcceleratorConfig &config)
    : config_(config), tile_(config.tile),
      energy_model_(config.geometry(), config.freq_ghz, config.dram,
                    config.energy),
      gate_(config.gate_min_sparsity)
{
    TD_ASSERT(config.tiles >= 1, "need at least one tile");
}

OpResult
Accelerator::runOp(const LoweredOp &lowered, GateOperand gate,
                   int) const
{
    OpResult result;
    result.op = lowered.op;
    result.b_nonzero_slots = (double)lowered.b_nonzero_slots;
    result.b_total_slots = (double)lowered.b_total_slots;
    result.mac_slots = (double)lowered.total_mac_slots;

    bool sparse_enabled = true;
    if (config_.power_gating && gate != GateOperand::None)
        sparse_enabled = gate_.enabled(gateOperandName(gate));
    result.gated = !sparse_enabled;

    double base_cycles = 0.0;
    double td_cycles = 0.0;
    TileStats stats;
    for (const TileJob &job : lowered.jobs) {
        uint64_t dense = Tile::baselineCycles(job);
        base_cycles += (double)dense * job.weight;
        if (sparse_enabled) {
            uint64_t cycles = tile_.run(job, stats);
            td_cycles += (double)cycles * job.weight;
        } else {
            td_cycles += (double)dense * job.weight;
        }
    }

    // Jobs spread round-robin over the tiles; with many jobs per layer
    // the tiles stay balanced, so time is total job cycles / tiles.
    result.base_cycles = base_cycles / config_.tiles;
    result.td_cycles = td_cycles / config_.tiles;

    // Staging traffic observed by the tiles, scaled to the full layer.
    double scale = lowered.sampled_jobs
        ? (double)lowered.total_jobs / (double)lowered.sampled_jobs
        : 0.0;
    result.activity.spad_row_reads =
        (double)(stats.b_rows_fetched + stats.a_rows_fetched) * scale;
    result.activity.spad_row_writes = result.activity.spad_row_reads;
    // Each scratchpad row was first read from the shared SRAMs.
    result.activity.sram_block_reads = result.activity.spad_row_reads;
    // One accumulated output per (b, a) pair, written back in blocks.
    double outputs = (double)lowered.out_shape.size();
    result.activity.sram_block_writes = outputs / config_.tile.lanes;
    result.activity.cycles = result.td_cycles;
    return result;
}

OpResult
Accelerator::runConvOp(TrainOp op, const Tensor &acts,
                       const Tensor &weights, const Tensor &out_grads,
                       const ConvSpec &spec, double out_sparsity) const
{
    Dataflow dataflow(config_.dataflow(false));
    LoweredOp lowered;
    uint64_t in0_nz = 0, in0_total = 0, in1_nz = 0, in1_total = 0;
    uint64_t out_total = 0;
    uint64_t transposed = 0;
    GateOperand gate = GateOperand::None;

    switch (op) {
      case TrainOp::Forward:
        lowered = dataflow.lowerForward(acts, weights, spec,
                                        config_.fwd_side);
        in0_nz = acts.nonzeros();
        in0_total = acts.size();
        in1_nz = weights.nonzeros();
        in1_total = weights.size();
        out_total = lowered.out_shape.size();
        gate = lowered.b_is_default_side ? GateOperand::Acts
                                         : GateOperand::Weights;
        break;
      case TrainOp::BackwardData:
        lowered = dataflow.lowerBackwardData(out_grads, weights,
                                             acts.shape(), spec,
                                             config_.bwd_data_side);
        in0_nz = out_grads.nonzeros();
        in0_total = out_grads.size();
        in1_nz = weights.nonzeros();
        in1_total = weights.size();
        out_total = lowered.out_shape.size();
        // The reconstructed filters pass through the transposers.
        transposed = weights.size();
        gate = lowered.b_is_default_side ? GateOperand::Grads
                                         : GateOperand::Weights;
        break;
      case TrainOp::BackwardWeights:
        lowered = dataflow.lowerBackwardWeights(
            out_grads, acts, weights.shape().h, weights.shape().w, spec,
            config_.wg_side);
        in0_nz = out_grads.nonzeros();
        in0_total = out_grads.size();
        in1_nz = acts.nonzeros();
        in1_total = acts.size();
        out_total = lowered.out_shape.size();
        // Gradients are re-bundled per filter (transposed layout).
        transposed = out_grads.size();
        gate = lowered.wg_b_is_gradients ? GateOperand::Grads
                                         : GateOperand::Acts;
        break;
    }

    OpResult result = runOp(lowered, gate);
    applyMemory(result, memoryDemand(in0_nz, in0_total, in1_nz,
                                     in1_total, out_total, out_sparsity,
                                     transposed));
    return result;
}

OpResult
Accelerator::runFcOp(TrainOp op, const Tensor &acts,
                     const Tensor &weights, const Tensor &out_grads,
                     double out_sparsity) const
{
    Dataflow dataflow(config_.dataflow(false));
    LoweredOp lowered;
    uint64_t in0_nz = 0, in0_total = 0, in1_nz = 0, in1_total = 0;
    uint64_t out_total = 0;
    uint64_t transposed = 0;
    GateOperand gate = GateOperand::None;

    // Operand accounting mirrors runConvOp: an FC layer moves the same
    // tensors, only the lowering skips the spatial index math.
    switch (op) {
      case TrainOp::Forward:
        lowered = dataflow.lowerFcForward(acts, weights,
                                          config_.fwd_side);
        in0_nz = acts.nonzeros();
        in0_total = acts.size();
        in1_nz = weights.nonzeros();
        in1_total = weights.size();
        out_total = lowered.out_shape.size();
        gate = lowered.b_is_default_side ? GateOperand::Acts
                                         : GateOperand::Weights;
        break;
      case TrainOp::BackwardData:
        lowered = dataflow.lowerFcBackwardData(out_grads, weights,
                                               acts.shape(),
                                               config_.bwd_data_side);
        in0_nz = out_grads.nonzeros();
        in0_total = out_grads.size();
        in1_nz = weights.nonzeros();
        in1_total = weights.size();
        out_total = lowered.out_shape.size();
        // The transposed weight matrix passes through the transposers.
        transposed = weights.size();
        gate = lowered.b_is_default_side ? GateOperand::Grads
                                         : GateOperand::Weights;
        break;
      case TrainOp::BackwardWeights:
        lowered = dataflow.lowerFcBackwardWeights(out_grads, acts,
                                                  config_.wg_side);
        in0_nz = out_grads.nonzeros();
        in0_total = out_grads.size();
        in1_nz = acts.nonzeros();
        in1_total = acts.size();
        out_total = lowered.out_shape.size();
        // Gradients are re-bundled per feature (transposed layout).
        transposed = out_grads.size();
        gate = lowered.wg_b_is_gradients ? GateOperand::Grads
                                         : GateOperand::Acts;
        break;
    }

    OpResult result = runOp(lowered, gate);
    applyMemory(result, memoryDemand(in0_nz, in0_total, in1_nz,
                                     in1_total, out_total, out_sparsity,
                                     transposed));
    return result;
}

Accelerator::OpMemoryDemand
Accelerator::memoryDemand(uint64_t in0_nz, uint64_t in0_total,
                          uint64_t in1_nz, uint64_t in1_total,
                          uint64_t out_total, double out_sparsity,
                          uint64_t transposed_values) const
{
    int vb = dataTypeBytes(config_.dtype);
    // Inputs stream in once per op, outputs stream out once; both are
    // CompressingDMA zero-compressed (baseline and TensorDash alike).
    OpMemoryDemand demand;
    demand.dram_read_bytes =
        CompressingDma::demandBytes(in0_nz, in0_total, vb) +
        CompressingDma::demandBytes(in1_nz, in1_total, vb);
    auto out_nz = (uint64_t)((double)out_total *
                             std::clamp(1.0 - out_sparsity, 0.0, 1.0));
    demand.dram_write_bytes =
        CompressingDma::demandBytes(out_nz, out_total, vb);
    demand.transposer_groups =
        (double)transposed_values / (kGroupDim * kGroupDim);
    return demand;
}

void
Accelerator::applyMemory(OpResult &result,
                         const OpMemoryDemand &demand) const
{
    result.activity.dram_read_bytes = demand.dram_read_bytes;
    result.activity.dram_write_bytes = demand.dram_write_bytes;
    result.activity.transposer_groups = demand.transposer_groups;
    if (config_.memory_model == MemoryModel::Analytic) {
        // Published-evaluation assumption: the streaming dataflow hides
        // off-chip latency, so traffic costs energy but never cycles.
        return;
    }

    MemoryPipeline pipeline(config_.mem_pipeline, config_.dram,
                            config_.freq_ghz);
    StageDemands stages;
    stages.dma_in_bytes = demand.dram_read_bytes;
    stages.transpose_groups = demand.transposer_groups;
    stages.dma_out_bytes = demand.dram_write_bytes;

    // The baseline and TensorDash move identical traffic; only the
    // TileCompute stage differs, so a memory-bound interval caps both
    // at the same DRAM time and the speedup collapses towards 1.
    stages.compute_cycles = result.base_cycles;
    PipelineTiming base = pipeline.resolve(stages);
    stages.compute_cycles = result.td_cycles;
    PipelineTiming td = pipeline.resolve(stages);

    result.base_mem_stall_cycles = base.mem_stall_cycles;
    result.td_mem_stall_cycles = td.mem_stall_cycles;
    result.memory_bound = td.memory_bound;
    result.base_cycles = base.cycles;
    result.td_cycles = td.cycles;
    result.activity.cycles = result.td_cycles;
    result.activity.dram_busy_cycles = td.dram_busy_cycles;
}

Tensor
Accelerator::runFunctional(const LoweredOp &lowered) const
{
    TD_ASSERT(lowered.exhaustive(),
              "functional runs need exhaustive lowering");
    Tensor out(lowered.out_shape);
    Tile tile(config_.tile);
    std::vector<std::vector<double>> outputs;
    TileStats stats;
    for (size_t j = 0; j < lowered.jobs.size(); ++j) {
        tile.run(lowered.jobs[j], stats, &outputs);
        Dataflow::scatter(lowered, j, outputs, out);
    }
    return out;
}

EnergyBreakdown
Accelerator::energy(const OpResult &result, bool tensordash) const
{
    RunActivity activity = result.activity;
    activity.cycles = tensordash ? result.td_cycles : result.base_cycles;
    // A gated TensorDash run draws baseline power.
    bool td_power = tensordash && !result.gated;
    return energy_model_.compute(activity, td_power);
}

} // namespace tensordash
