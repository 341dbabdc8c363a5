#include "sim/scheduler.hh"

#include <algorithm>
#include <bit>
#include <functional>
#include <vector>

#include "common/logging.hh"

namespace tensordash {

HierarchicalScheduler::HierarchicalScheduler(const MuxPattern &pattern)
    : pattern_(&pattern),
      depth_(pattern.depth()),
      lanes_(pattern.lanes()),
      rows_per_word_(64 / pattern.lanes()),
      row_lanes_((1ull << pattern.lanes()) - 1u)
{
    // The low and high lane bit of every packed row.
    uint64_t all = 0, low_lane = 0;
    for (int j = 0; j < rows_per_word_; ++j) {
        all |= row_lanes_ << (j * lanes_);
        low_lane |= 1ull << (j * lanes_);
    }
    seg_high_ = low_lane << (lanes_ - 1);
    seg_rest_ = all & ~seg_high_;

    // A movement shifts every lane by the same wrapped delta, and two
    // movements alias for one lane exactly when they alias for all of
    // them, so options(lane)[r] is lane 0's option r shifted by `lane`.
    // A level's rank r therefore reads one (step, rotation) for all of
    // its lanes.
    const std::vector<MoveOption> &ranks = pattern.options(0);
    ranks_per_level_ = (int)ranks.size();
    for (int lane = 0; lane < lanes_; ++lane) {
        const std::vector<MoveOption> &options = pattern.options(lane);
        TD_ASSERT(options.size() == ranks.size(),
                  "lane %d has %zu options, lane 0 has %zu", lane,
                  options.size(), ranks.size());
        for (size_t r = 0; r < ranks.size(); ++r)
            TD_ASSERT(options[r].step == ranks[r].step &&
                          options[r].lane == (lane + ranks[r].lane) % lanes_,
                      "lane %d option %zu is not a shifted lane-0 option",
                      lane, r);
    }
    for (const std::vector<int> &level : pattern.levels()) {
        uint64_t members = 0;
        for (int lane : level)
            members |= low_lane << lane;
        level_lanes_.push_back(members);
        for (const MoveOption &opt : ranks) {
            // Lanes below `lanes - shift` read `shift` lanes up in
            // their own row; the others wrap to the row's low lanes.
            const uint32_t shift = (uint32_t)opt.lane;
            const uint32_t wrap = (uint32_t)lanes_ - shift;
            uint64_t unwrapped = 0;
            for (uint32_t lane = 0; lane < wrap; ++lane)
                unwrapped |= low_lane << lane;
            ranks_.push_back({members & unwrapped, members & ~unwrapped,
                              (uint32_t)opt.step, shift, wrap});
        }
    }
    dense_rank0_ = !ranks.empty() && ranks[0].step == 0 &&
                   ranks[0].lane == 0;
}

template <bool Record>
uint64_t
HierarchicalScheduler::resolveImpl(uint64_t *z, uint64_t occupied,
                                   int16_t *select) const
{
    // Dense path: every lane's top-priority option is its own dense
    // position, which no other lane's top option reads, so with step 0
    // full every lane picks it, level after level.
    if (dense_rank0_ && z[0] == occupied) {
        z[0] = 0;
        if constexpr (Record)
            std::fill_n(select, std::bit_width(occupied), 0);
        return occupied;
    }

    uint64_t taken = 0;
    const Rank *rank = ranks_.data();
    for (uint64_t level_lanes : level_lanes_) {
        const Rank *end = rank + ranks_per_level_;
        // Lanes of rows whose window has drained can never pick, so
        // the level is done once every lane of a live row has.
        uint64_t any = 0;
        for (int s = 0; s < depth_; ++s)
            any |= z[s];
        if (!any)
            break;
        const uint64_t live_rows =
            (((any & seg_rest_) + seg_rest_) | any) & seg_high_;
        const uint64_t need =
            level_lanes & (live_rows >> (lanes_ - 1)) * row_lanes_;
        if (!need) {
            rank = end;
            continue;
        }

        uint64_t level_taken = 0;
        std::array<uint64_t, 8> strip{};
        for (; rank != end; ++rank) {
            const uint64_t zs = z[rank->step];
            const uint64_t avail = ((zs >> rank->shift) & rank->lo) |
                                   ((zs << rank->wrap) & rank->hi);
            const uint64_t pick = avail & ~level_taken;
            // A rank that hands out nothing new leaves every bit of
            // the level as it was.
            if (!pick)
                continue;
            level_taken |= pick;
            strip[rank->step] |= ((pick & rank->lo) << rank->shift) |
                                 ((pick & rank->hi) >> rank->wrap);
            if constexpr (Record) {
                const int16_t option = (int16_t)(ranks_per_level_ -
                                                 (end - rank));
                for (uint64_t bits = pick; bits; bits &= bits - 1)
                    select[std::countr_zero(bits)] = option;
            }
            if ((level_taken & need) == need) {
                rank = end;
                break;
            }
        }
        for (int s = 0; s < depth_; ++s)
            z[s] &= ~strip[s];
        taken |= level_taken;
    }
    return taken;
}

uint64_t
HierarchicalScheduler::resolve(uint64_t *z, uint64_t occupied,
                               int16_t *select) const
{
    return select ? resolveImpl<true>(z, occupied, select)
                  : resolveImpl<false>(z, occupied, nullptr);
}

Schedule
HierarchicalScheduler::schedule(const uint32_t *pending, int valid) const
{
    std::array<uint64_t, 8> z{};
    for (int s = 0; s < valid; ++s)
        z[s] = pending[s];
    Schedule out;
    out.select.fill(-1);
    const uint64_t taken = resolve(z.data(), row_lanes_, out.select.data());
    out.picks = std::popcount(taken);
    return out;
}

int
HierarchicalScheduler::step(StagingWindow &window, Schedule *out) const
{
    int valid = window.validRows();
    Schedule sched = schedule(window.pendingMasks(), valid);
    for (int lane = 0; lane < pattern_->lanes(); ++lane) {
        int idx = sched.select[lane];
        if (idx < 0)
            continue;
        const MoveOption &opt = pattern_->options(lane)[idx];
        window.consume(opt.step, opt.lane);
    }
    window.advance();
    if (out)
        *out = sched;
    return sched.picks;
}

int
oracleMaxPicks(const MuxPattern &pattern, const uint32_t *pending,
               int valid)
{
    // Enumerate pending positions reachable by at least one lane.
    struct Pos { int step; int lane; };
    std::vector<Pos> positions;
    std::vector<std::vector<int>> lane_adj(pattern.lanes());
    for (int s = 0; s < valid; ++s) {
        for (int l = 0; l < pattern.lanes(); ++l) {
            if (!(pending[s] >> l & 1))
                continue;
            positions.push_back({s, l});
        }
    }
    for (int lane = 0; lane < pattern.lanes(); ++lane) {
        for (const auto &opt : pattern.options(lane)) {
            if (opt.step >= valid)
                continue;
            for (int p = 0; p < (int)positions.size(); ++p) {
                if (positions[p].step == opt.step &&
                    positions[p].lane == opt.lane) {
                    lane_adj[lane].push_back(p);
                }
            }
        }
    }

    // Kuhn's augmenting-path matching: lanes on the left, pending
    // positions on the right.
    std::vector<int> match_pos(positions.size(), -1);
    std::vector<char> visited;

    std::function<bool(int)> augment = [&](int lane) -> bool {
        for (int p : lane_adj[lane]) {
            if (visited[p])
                continue;
            visited[p] = 1;
            if (match_pos[p] < 0 || augment(match_pos[p])) {
                match_pos[p] = lane;
                return true;
            }
        }
        return false;
    };

    int matched = 0;
    for (int lane = 0; lane < pattern.lanes(); ++lane) {
        visited.assign(positions.size(), 0);
        if (augment(lane))
            ++matched;
    }
    return matched;
}

} // namespace tensordash
