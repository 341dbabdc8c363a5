#ifndef TENSORDASH_SIM_ACCELERATOR_HH_
#define TENSORDASH_SIM_ACCELERATOR_HH_

/**
 * @file
 * Top-level accelerator model (paper Table 2 defaults: 16 tiles of
 * 4x4 16-MAC PEs, 4096 MACs/cycle at 500 MHz, AM/BM/CM SRAM, 15
 * transposers, 4-channel LPDDR4-3200 off-chip behind CompressingDMA).
 *
 * The accelerator runs lowered training operations: tile jobs are
 * distributed round-robin across tiles, cycle counts are estimated from
 * sampled jobs (weights scale them back to the full layer), and memory
 * traffic either rides the staged MemoryPipeline (DmaIn -> Transpose ->
 * TileCompute -> DmaOut, resolved against DRAM bandwidth so a layer can
 * be memory bound in cycles) or, in the Analytic model, is charged for
 * energy only exactly as the paper's evaluation assumes.
 */

#include <cstdint>
#include <string_view>

#include "sim/area_model.hh"
#include "sim/dataflow.hh"
#include "sim/energy.hh"
#include "sim/memory/dram.hh"
#include "sim/memory/pipeline.hh"
#include "sim/power_gate.hh"
#include "sim/tile.hh"
#include "tensor/conv_ref.hh"
#include "tensor/tensor.hh"

namespace tensordash {

/**
 * Which operand's power-gate counter governs an op's sparse front end.
 * A plain enum rather than a string key so the per-op hot path never
 * allocates; conversion to the PowerGateController's string table keys
 * happens only at the lookup boundary (gateOperandName).
 */
enum class GateOperand : uint8_t
{
    None, ///< never gate
    Acts,
    Grads,
    Weights,
};

/** PowerGateController table key for @p operand (empty for None). */
constexpr std::string_view
gateOperandName(GateOperand operand)
{
    switch (operand) {
      case GateOperand::Acts:
        return "acts";
      case GateOperand::Grads:
        return "grads";
      case GateOperand::Weights:
        return "weights";
      case GateOperand::None:
        break;
    }
    return {};
}

/** Full accelerator configuration. */
struct AcceleratorConfig
{
    int tiles = 16;
    TileConfig tile;
    DataType dtype = DataType::Fp32;
    double freq_ghz = 0.5;
    DramConfig dram;
    EnergyConstants energy;

    /**
     * How off-chip traffic affects cycle counts.  Pipelined resolves
     * DRAM/DMA contention per streaming interval; Analytic charges
     * traffic for energy only (exact reproduction of the published
     * evaluation, which assumes latency is hidden).
     */
    MemoryModel memory_model = MemoryModel::Pipelined;
    MemoryPipelineConfig mem_pipeline;

    /** Per-op dense-MAC sampling cap (0 = exhaustive). */
    uint64_t max_sampled_macs = 1500000;
    uint64_t seed = 1;

    /** Enable the automatic power gating of section 3.5. */
    bool power_gating = false;

    /**
     * Minimum B-side sparsity for power gating to keep the front end
     * enabled.  Break-even sits where the speedup repays the ~2% power
     * overhead; 10% leaves comfortable margin.
     */
    double gate_min_sparsity = 0.10;

    /**
     * Scheduled-side policies per op.  Defaults follow the paper:
     * activations for the forward pass, gradients for backward-data,
     * and GO-or-A-whichever-is-sparser for backward-weights.  Auto
     * (pick the sparser operand, including the weights) is available
     * as an extension and exercised by the side-policy ablation bench.
     */
    FwdSide fwd_side = FwdSide::Activations;
    BwdDataSide bwd_data_side = BwdDataSide::Gradients;
    WgSide wg_side = WgSide::Auto;

    /**
     * Mix every result-affecting field into a task fingerprint.  Any
     * new configuration field that can change a simulation result must
     * be added here too, or cached results will be served for runs
     * they do not describe (the key-sensitivity tests enumerate the
     * fields).
     */
    void hashInto(FnvHasher &h) const;

    /** Stand-alone fingerprint of this configuration. */
    uint64_t fingerprint() const;

    /** Geometry handed to the area/energy models. */
    ArchGeometry
    geometry() const
    {
        ArchGeometry g;
        g.tiles = tiles;
        g.rows = tile.rows;
        g.cols = tile.cols;
        g.lanes = tile.lanes;
        g.depth = tile.depth;
        g.mux_options = (int)MuxPattern::paperMoves(tile.depth).size();
        g.dtype = dtype;
        return g;
    }

    /** Dataflow configuration derived from this accelerator. */
    DataflowConfig
    dataflow(bool with_values = false) const
    {
        DataflowConfig d;
        d.rows = tile.rows;
        d.cols = tile.cols;
        d.lanes = tile.lanes;
        d.max_sampled_macs = with_values ? 0 : max_sampled_macs;
        d.seed = seed;
        d.with_values = with_values;
        return d;
    }
};

/** Result of running one training operation. */
struct OpResult
{
    TrainOp op = TrainOp::Forward;

    /** Accelerator cycles (weighted to the full layer, all tiles).
     * Under the Pipelined memory model these are end-to-end cycles,
     * max(compute, memory) per streaming interval; under Analytic they
     * are compute-only. */
    double base_cycles = 0.0;
    double td_cycles = 0.0;

    /** Cycles added over the compute-only estimate by off-chip
     * traffic (always 0 under the Analytic memory model). */
    double base_mem_stall_cycles = 0.0;
    double td_mem_stall_cycles = 0.0;

    /** True when any merged op's steady state was DRAM-limited. */
    bool memory_bound = false;

    /** Work-reduction potential on the scheduled side (Fig. 1). */
    double b_nonzero_slots = 0.0;
    double b_total_slots = 0.0;

    /** Dense MAC slots in the full operation. */
    double mac_slots = 0.0;

    /** Memory/compute activity shared by baseline and TensorDash
     * (cycles field unused here; see energy()). */
    RunActivity activity;

    /** True when power gating disabled the sparse front end. */
    bool gated = false;

    double
    speedup() const
    {
        return td_cycles > 0.0 ? base_cycles / td_cycles : 1.0;
    }

    double
    potentialSpeedup() const
    {
        return b_nonzero_slots > 0.0 ? b_total_slots / b_nonzero_slots
                                     : 1.0;
    }

    /** Fraction of TensorDash cycles stalled on off-chip traffic. */
    double
    memoryStallFraction() const
    {
        return td_cycles > 0.0 ? td_mem_stall_cycles / td_cycles : 0.0;
    }

    void
    merge(const OpResult &o)
    {
        base_cycles += o.base_cycles;
        td_cycles += o.td_cycles;
        base_mem_stall_cycles += o.base_mem_stall_cycles;
        td_mem_stall_cycles += o.td_mem_stall_cycles;
        memory_bound = memory_bound || o.memory_bound;
        b_nonzero_slots += o.b_nonzero_slots;
        b_total_slots += o.b_total_slots;
        mac_slots += o.mac_slots;
        activity.merge(o.activity);
    }

    /** Bit-exact binary round-trip (result cache / shard files). */
    void serialize(ByteWriter &w) const;
    void deserialize(ByteReader &r);
};

/**
 * Cycle-level accelerator simulator.
 *
 * Running an op is logically const: results depend only on the config,
 * the operands and the (frozen) power-gate table, never on earlier
 * runs.  The tile keeps internal scratch though, so one Accelerator
 * instance must NOT be shared across threads — the parallel engine
 * gives every simulation task its own instance.
 */
class Accelerator
{
  public:
    explicit Accelerator(const AcceleratorConfig &config);

    const AcceleratorConfig &config() const { return config_; }
    PowerGateController &powerGate() { return gate_; }
    const PowerGateController &powerGate() const { return gate_; }

    /**
     * Run one lowered operation (performance mode).  Jobs run
     * serially, in order, on this accelerator's one Tile.  The unnamed
     * third parameter is ignored; it exists only because the frozen
     * perfbench replay (perfbench/replay.cc) calls
     * runOp(lowered, gate, 1).
     *
     * @param lowered       sampled tile jobs
     * @param gate          power-gating identity of the scheduled
     *                      operand (None = never gate)
     * @return cycle counts and tile-side activity
     */
    OpResult runOp(const LoweredOp &lowered,
                   GateOperand gate = GateOperand::None, int = 1) const;

    /**
     * Lower and run one convolution training op including the memory
     * traffic charge.
     *
     * @param op            which training convolution
     * @param acts          A (N, C, H, W)
     * @param weights       W (F, C, Kh, Kw)
     * @param out_grads     GO (N, F, Oh, Ow); may be empty for Forward
     * @param spec          stride/padding
     * @param out_sparsity  estimated zero fraction of the op's output
     *                      (used to size the compressed write-back)
     */
    OpResult runConvOp(TrainOp op, const Tensor &acts,
                       const Tensor &weights, const Tensor &out_grads,
                       const ConvSpec &spec,
                       double out_sparsity = 0.0) const;

    /**
     * Lower and run one matmul/fully-connected training op including
     * the memory traffic charge.  Operands use the 4-D convention with
     * h = w = 1 (A (N, C, 1, 1), W (F, C, 1, 1), GO (N, F, 1, 1));
     * results are bit-identical to runConvOp on the equivalent
     * kernel=1/stride=1/pad=0 convolution.
     *
     * @param op            which training matmul
     * @param acts          A (N, C, 1, 1)
     * @param weights       W (F, C, 1, 1)
     * @param out_grads     GO (N, F, 1, 1); may be empty for Forward
     * @param out_sparsity  estimated zero fraction of the op's output
     */
    OpResult runFcOp(TrainOp op, const Tensor &acts,
                     const Tensor &weights, const Tensor &out_grads,
                     double out_sparsity = 0.0) const;

    /**
     * Functional run: exhaustive lowering with values, producing the
     * op's full output tensor through the TensorDash tiles.
     */
    Tensor runFunctional(const LoweredOp &lowered) const;

    /** Energy for an op result (baseline or TensorDash). */
    EnergyBreakdown energy(const OpResult &result, bool tensordash) const;

    /** The energy model in use. */
    const EnergyModel &energyModel() const { return energy_model_; }

  private:
    /** Off-chip traffic of one op, identical for baseline and
     * TensorDash (both CompressingDMA-compress their transfers). */
    struct OpMemoryDemand
    {
        double dram_read_bytes = 0.0;
        double dram_write_bytes = 0.0;
        double transposer_groups = 0.0;
    };

    OpMemoryDemand memoryDemand(uint64_t in0_nz, uint64_t in0_total,
                                uint64_t in1_nz, uint64_t in1_total,
                                uint64_t out_total, double out_sparsity,
                                uint64_t transposed_values) const;

    /** Charge @p demand to the result: energy-only traffic under
     * Analytic, pipelined cycle resolution under Pipelined. */
    void applyMemory(OpResult &result,
                     const OpMemoryDemand &demand) const;

    AcceleratorConfig config_;
    /** Scratch-carrying cycle model; results don't depend on it. */
    mutable Tile tile_;
    EnergyModel energy_model_;
    PowerGateController gate_;
};

} // namespace tensordash

#endif // TENSORDASH_SIM_ACCELERATOR_HH_
