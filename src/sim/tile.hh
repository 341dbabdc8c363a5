#ifndef TENSORDASH_SIM_TILE_HH_
#define TENSORDASH_SIM_TILE_HH_

/**
 * @file
 * A TensorDash tile (paper section 3.3, Fig. 11): an R x C grid of PEs.
 *
 * PEs along a row share the same B operand stream and one hardware
 * scheduler; PEs along a column share the same A operand stream.
 * PE(r, c) therefore computes dot(B_r, A_c).  Sparsity is extracted from
 * the B side only: each row's scheduler sees just its B staging buffer's
 * zero vector, and the A-side values move in tandem through per-PE
 * multiplexer blocks driven by the row's MS signals.
 *
 * Because the A-side staging buffers are shared down each column, every
 * row must observe the same window of dense steps: the tile's window
 * advances by the *minimum* AS across rows each cycle.  Rows with denser
 * B streams therefore stall rows with sparser ones — the work-imbalance
 * effect the paper studies in Fig. 17.
 */

#include <cstdint>
#include <vector>

#include "common/hashing.hh"
#include "sim/mux_pattern.hh"
#include "sim/scheduler.hh"
#include "sim/stream.hh"

namespace tensordash {

/** Static configuration of a tile. */
struct TileConfig
{
    int rows = 4;
    int cols = 4;
    int lanes = 16;
    int depth = 3;
    InterconnectKind interconnect = InterconnectKind::Paper;

    /** Mix every result-affecting field into a task fingerprint. */
    void
    hashInto(FnvHasher &h) const
    {
        h.i64(rows);
        h.i64(cols);
        h.i64(lanes);
        h.i64(depth);
        h.i64((int)interconnect);
    }
};

/**
 * One unit of tile work: up to `rows` B streams over `cols` PE columns,
 * all of equal length; PE(r, c) accumulates dot(B_r, A_c) over the
 * whole job.  The schedule depends on the B masks alone, so timing-only
 * jobs leave `a` empty; functional runs need all `cols` A streams.
 */
struct TileJob
{
    std::vector<BlockStream> b;
    std::vector<BlockStream> a;

    /** Active PE columns (== a.size() whenever A streams are given). */
    int cols = 0;

    /** Number of real jobs this (possibly sampled) job represents. */
    double weight = 1.0;

    int steps() const { return b.empty() ? 0 : b.front().rows(); }
};

/** Activity counters for tile runs. */
struct TileStats
{
    uint64_t cycles = 0;
    uint64_t dense_cycles = 0;
    /** Multiplications performed (schedule picks x active columns). */
    uint64_t mult_ops = 0;
    /** Multiplier slots left idle while the tile was running. */
    uint64_t idle_mult_slots = 0;
    /** Cycles in which at least one row stalled the window advance. */
    uint64_t stall_cycles = 0;
    /** Staging rows fetched (B side and A side). */
    uint64_t b_rows_fetched = 0;
    uint64_t a_rows_fetched = 0;

    double
    speedup() const
    {
        return cycles ? (double)dense_cycles / (double)cycles : 1.0;
    }
};

/** Cycle-level model of one tile. */
class Tile
{
  public:
    explicit Tile(const TileConfig &config);

    const TileConfig &config() const { return config_; }
    const MuxPattern &pattern() const { return pattern_; }

    /**
     * Simulate one job.
     *
     * @param job     operand streams (validated against the config)
     * @param stats   accumulated activity counters (unweighted)
     * @param outputs optional functional accumulators, indexed
     *                [row][col]; requires value-mode B and A streams
     * @return TensorDash cycles for the job
     */
    uint64_t run(const TileJob &job, TileStats &stats,
                 std::vector<std::vector<double>> *outputs = nullptr);

    /** Dense baseline cycles for the same job (== steps). */
    static uint64_t baselineCycles(const TileJob &job)
    { return job.steps(); }

  private:
    TileConfig config_;
    MuxPattern pattern_;
    HierarchicalScheduler scheduler_;

    // Mask scratch reused across run() calls: every B stream's
    // nonzero masks are materialised once into one flat rows x steps
    // block, and the staging window is a sliding view into it mutated
    // in place — a step leaves the window for good once the base
    // passes it, so there is no per-cycle shift or refill.  Fully
    // rewritten at the start of every run (for the rows the job
    // uses), so runs never depend on earlier ones.
    std::vector<uint32_t> masks_;
};

} // namespace tensordash

#endif // TENSORDASH_SIM_TILE_HH_
