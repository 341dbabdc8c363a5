#ifndef TENSORDASH_SIM_SCHEDULER_HH_
#define TENSORDASH_SIM_SCHEDULER_HH_

/**
 * @file
 * The TensorDash hardware scheduler (paper section 3.2, Fig. 10).
 *
 * Input: the window of pending effectual-pair masks (`Z` in the paper,
 * AZ AND BZ for two-side extraction, BZ alone for one-side tiles).
 * Output: one movement selection per lane (the MS signals) such that every
 * pending pair is consumed at most once.
 *
 * The hardware resolves conflicts hierarchically: lanes are grouped into
 * levels whose option sets are disjoint by construction; each level's
 * priority encoders decide independently, then AND-gates strip the chosen
 * bits from Z before it reaches the next level.  The whole block is
 * combinational and completes in one cycle.
 *
 * The model is bit-sliced the same way.  A row's window step is a
 * `lanes`-bit segment, and 64 / lanes rows share one 64-bit word.  A
 * level is one pass over the option ranks (the movement list in
 * priority order): rank k rotates every segment of Z[step_k] so that
 * lane i sees position (step_k, i + delta_k), masks it to the level's
 * lanes, and hands the still-free lanes their pick.  Because a level's
 * option sets are disjoint, every lane of every packed row reads Z as
 * the previous level left it, and the picks are stripped only once the
 * level has decided — exactly the hardware's order.
 */

#include <array>
#include <cstdint>
#include <vector>

#include "sim/mux_pattern.hh"
#include "sim/staging_buffer.hh"

namespace tensordash {

/** Selection produced for one cycle. */
struct Schedule
{
    /** Option index per lane (into MuxPattern::options), -1 = lane idle. */
    std::array<int16_t, 32> select;

    /** Number of pairs consumed this cycle. */
    int picks = 0;
};

/** Cycle-level model of the hierarchical scheduler block. */
class HierarchicalScheduler
{
  public:
    /**
     * @param pattern interconnect whose options/levels drive selection;
     * construction compiles them into the bit-sliced level program.
     */
    explicit HierarchicalScheduler(const MuxPattern &pattern);

    const MuxPattern &pattern() const { return *pattern_; }

    /** Rows packed into one 64-bit word (64 / lanes). */
    int rowsPerWord() const { return rows_per_word_; }

    /**
     * Resolve one cycle for the rows packed into one word: row j of
     * the word occupies bits [j * lanes, (j + 1) * lanes) of every
     * window step.
     *
     * @param z        the word's window steps 0 .. depth-1; steps past
     *                 the end of the streams must read 0.  Consumed
     *                 pairs are cleared in place.
     * @param occupied the lane bits of the rows present in the word
     *                 (the rows fill the word from bit 0)
     * @param select   optional, one entry per occupied bit: for every
     *                 picking lane bit, the index into
     *                 MuxPattern::options() of its pick
     * @return one bit per (row, lane) that picked a pair this cycle
     */
    uint64_t resolve(uint64_t *z, uint64_t occupied,
                     int16_t *select = nullptr) const;

    /**
     * Compute one cycle's schedule for a single row.
     *
     * @param pending effectual-pair masks, one per window step
     * @param valid   number of valid window steps
     * @return the per-lane selections and pick count
     */
    Schedule schedule(const uint32_t *pending, int valid) const;

    /**
     * Run one full PE cycle against a staging window: schedule, consume
     * the picked pairs, then retire fully-consumed rows.
     *
     * @param window staging window to mutate
     * @param out    optional schedule output for callers that need the
     *               selections (e.g. the functional path)
     * @return number of pairs consumed
     */
    int step(StagingWindow &window, Schedule *out = nullptr) const;

  private:
    /** One option rank of one level, for every packed row at once:
     * lane bits in `lo` read position (step, lane + shift) and those in
     * `hi` wrap around to (step, lane + shift - lanes).  Both masks are
     * already restricted to the level's lanes. */
    struct Rank
    {
        uint64_t lo;
        uint64_t hi;
        uint32_t step;
        uint32_t shift;
        uint32_t wrap; ///< lanes - shift
    };

    template <bool Record>
    uint64_t resolveImpl(uint64_t *z, uint64_t occupied,
                         int16_t *select) const;

    const MuxPattern *pattern_;
    int depth_;
    int lanes_;
    int rows_per_word_;
    uint64_t row_lanes_; ///< the lane bits of one row
    uint64_t seg_high_; ///< top lane bit of every packed row
    uint64_t seg_rest_; ///< every other packed lane bit
    /** The program, level-major: level k owns ranks
     * [k * ranks_per_level_, (k + 1) * ranks_per_level_), and a
     * level's rank r is every lane's option r. */
    std::vector<uint64_t> level_lanes_;
    std::vector<Rank> ranks_;
    int ranks_per_level_ = 0;
    /** Option 0 is every lane's own dense position, so a full step 0
     * is the whole schedule. */
    bool dense_rank0_ = false;
};

/**
 * Brute-force oracle: the maximum number of pending pairs any valid
 * one-cycle schedule could consume, via maximum bipartite matching of
 * lanes to reachable pending positions.  Used by tests as an upper bound
 * on (and near-target for) the hierarchical scheduler.
 */
int oracleMaxPicks(const MuxPattern &pattern, const uint32_t *pending,
                   int valid);

} // namespace tensordash

#endif // TENSORDASH_SIM_SCHEDULER_HH_
