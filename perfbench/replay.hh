#ifndef PERFBENCH_REPLAY_HH_
#define PERFBENCH_REPLAY_HH_

/**
 * @file
 * Per-layer replay of a sweep grid from the library's public layer
 * functions.
 *
 * The replay walks the same (variant x model x progress x layer x op)
 * grid ModelRunner::runSweep simulates, but calls each layer itself:
 * ModelZoo::synthesize, Tensor::sparsity, Dataflow lowering,
 * Accelerator::runOp (the tile kernel), the memory demand and
 * MemoryPipeline resolution, Accelerator::energy, and — when a store
 * directory is given — ResultStore lookup and insert.  Geometry
 * variants sharing a SynthKey share one synthesis, as the SynthCache
 * makes the runner do.  With a Tracer every call gets a span; the
 * replayed cells must equal the runner's byte for byte, which is what
 * makes the per-layer split a faithful account of the sweep.
 */

#include <string>
#include <vector>

#include "core/tensordash.hh"
#include "service/job_spec.hh"
#include "trace.hh"

namespace perfbench {

struct ReplayResult
{
    /** Replayed cells in global serial cell order (planSweep order). */
    std::vector<tensordash::OpCellResult> cells;

    /** Closed-form estimated simulation cost of each cell
     * (estimateSimCost, as the runner ranks claims). */
    std::vector<double> est_cost;

    /** Host seconds of each cell's lower + tile + memory calls. */
    std::vector<double> cell_s;

    /** |estimated - simulated| / simulated TensorDash cycles. */
    std::vector<double> cycle_err;

    /** Per-call ResultStore latencies (us); empty without a store. */
    std::vector<double> lookup_us;
    std::vector<double> insert_us;

    /** Counters of the replay's private ResultStore. */
    tensordash::CacheCounters store;

    size_t synth_calls = 0;
    double synth_elems = 0.0; ///< elements synthesized (A + W + GO)
    uint64_t tile_jobs = 0;   ///< sampled tile jobs lowered
};

/**
 * Replay @p job's grid.  @p tracer (serial only) records a span per
 * layer call; untraced replays may use @p threads > 1, one synthesis
 * group per pool task.  A non-empty @p store_dir routes every cell
 * through a private ResultStore rooted there (lookup before, insert
 * after simulating), as a cold cached sweep does.
 */
ReplayResult replaySweep(const tensordash::service::JobSpec &job,
                         Tracer *tracer, int threads,
                         const std::string &store_dir = "");

/** Cells of @p sweep whose serialized bytes differ from the replay's
 * (all of them when the grids do not line up). */
size_t replayMismatches(const ReplayResult &replay,
                        const tensordash::SweepResult &sweep);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_HH_
