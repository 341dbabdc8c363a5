#include "sim/dataflow.hh"

#include <algorithm>

#include "common/logging.hh"

namespace tensordash {

const char *
trainOpName(TrainOp op)
{
    switch (op) {
      case TrainOp::Forward: return "AxW";
      case TrainOp::BackwardData: return "AxG";
      case TrainOp::BackwardWeights: return "WxG";
    }
    return "?";
}

const char *
phaseName(WorkloadPhase phase)
{
    switch (phase) {
      case WorkloadPhase::Training: return "training";
      case WorkloadPhase::Inference: return "inference";
    }
    return "?";
}

std::span<const TrainOp>
phaseOps(WorkloadPhase phase)
{
    static constexpr TrainOp kTrainingOps[] = {
        TrainOp::Forward, TrainOp::BackwardData,
        TrainOp::BackwardWeights};
    static constexpr TrainOp kInferenceOps[] = {TrainOp::Forward};
    switch (phase) {
      case WorkloadPhase::Training: return kTrainingOps;
      case WorkloadPhase::Inference: return kInferenceOps;
    }
    return {};
}

namespace {

/*
 * Side gatherers.  A side has `count` outputs and hands out, per
 * output, a cursor whose next() returns that output's operand at
 * reduction index 0, 1, 2, ... in turn.  Cursors keep running counters
 * and a flat tensor offset: the inner counter steps by one, and tap
 * geometry (bounds, dilation holes, base offset) is re-derived only
 * when it wraps.  Out-of-window taps read as structural zeros.
 */

/**
 * A reduction that is a two-level strided walk of one tensor: output o
 * starts at offset o * out_stride; the walk takes `inner_len` steps of
 * `inner_stride`, then restarts `outer_stride` past the previous
 * restart.  Covers the filter banks, the weight-gradient maps and
 * every matmul operand.
 */
struct StridedSide
{
    int count;
    const float *data;
    size_t out_stride;
    int inner_len;
    size_t inner_stride;
    size_t outer_stride = 0;

    struct Cursor
    {
        const float *data;
        int inner_len;
        size_t inner_stride, outer_stride;
        size_t row, off;
        int i = 0;

        float
        next()
        {
            float v = data[off];
            if (++i == inner_len) {
                i = 0;
                row += outer_stride;
                off = row;
            } else {
                off += inner_stride;
            }
            return v;
        }
    };

    Cursor
    cursor(int o) const
    {
        size_t base = (size_t)o * out_stride;
        return {data, inner_len, inner_stride, outer_stride, base, base};
    }
};

/**
 * A (ky, kx)-outer, channel-inner reduction over an NCHW tensor: the
 * inner counter steps one channel plane at a time, and Tap::locate
 * resolves each tap's validity and spatial offset once per wrap.
 */
template <class Tap>
struct TapCursor
{
    Tap tap;
    const float *data;
    size_t plane;
    int chans, kh, kw;
    int c = 0, ky = 0, kx = 0;
    size_t off = 0;
    bool valid = false;

    TapCursor(const Tap &t, const float *d, size_t p, int ch, int h, int w)
        : tap(t), data(d), plane(p), chans(ch), kh(h), kw(w)
    {
        valid = tap.locate(ky, kx, off);
    }

    float
    next()
    {
        float v = valid ? data[off] : 0.0f;
        off += plane;
        if (++c == chans) {
            c = 0;
            if (++kx == kw) {
                kx = 0;
                ++ky;
            }
            valid = ky < kh && tap.locate(ky, kx, off);
        }
        return v;
    }
};

/** Forward windows: output (n, oy, ox) reads A[n, c, iy, ix]. */
struct FwdWindowSide
{
    int count;
    const Tensor &acts;
    ConvSpec spec;
    int oh, ow, kh, kw;

    struct Tap
    {
        size_t n_off;
        int y0, x0, h, w;

        bool
        locate(int ky, int kx, size_t &off) const
        {
            int iy = y0 + ky;
            int ix = x0 + kx;
            if (iy < 0 || iy >= h || ix < 0 || ix >= w)
                return false;
            off = n_off + (size_t)iy * w + ix;
            return true;
        }
    };

    TapCursor<Tap>
    cursor(int o) const
    {
        const Shape &s = acts.shape();
        int ox = o % ow;
        int oy = (o / ow) % oh;
        int n = o / (oh * ow);
        Tap tap{(size_t)n * s.c * s.h * s.w, oy * spec.stride - spec.pad,
                ox * spec.stride - spec.pad, s.h, s.w};
        return {tap, acts.data(), (size_t)s.h * s.w, s.c, kh, kw};
    }
};

/**
 * Backward-data windows (Eq. 6): input position (n, iy, ix) reads the
 * stride-dilated GO[n, f, oy, ox]; dilation holes and out-of-window
 * taps are structural zeros.
 */
struct BwdDataWindowSide
{
    int count;
    const Tensor &out_grads;
    ConvSpec spec;
    int ih, iw, kh, kw;

    struct Tap
    {
        size_t n_off;
        int ny, nx, stride, gh, gw;

        bool
        locate(int ky, int kx, size_t &off) const
        {
            int num_y = ny - ky;
            int num_x = nx - kx;
            if (num_y < 0 || num_x < 0 || num_y % stride ||
                num_x % stride) {
                return false;
            }
            int oy = num_y / stride;
            int ox = num_x / stride;
            if (oy >= gh || ox >= gw)
                return false;
            off = n_off + (size_t)oy * gw + ox;
            return true;
        }
    };

    TapCursor<Tap>
    cursor(int o) const
    {
        const Shape &s = out_grads.shape();
        int ix = o % iw;
        int iy = (o / iw) % ih;
        int n = o / (ih * iw);
        Tap tap{(size_t)n * s.c * s.h * s.w, iy + spec.pad, ix + spec.pad,
                spec.stride, s.h, s.w};
        return {tap, out_grads.data(), (size_t)s.h * s.w, s.c, kh, kw};
    }
};

/**
 * Weight-gradient activation taps: tap (c, ky, kx) reads
 * A[n, c, oy*stride + ky - pad, ox*stride + kx - pad] over the
 * (n, oy)-outer, ox-inner reduction of the gradient maps.
 */
struct WgTapSide
{
    int count;
    const Tensor &acts;
    ConvSpec spec;
    int gh, gw, kh, kw;

    struct Cursor
    {
        const float *data;
        size_t c_off, batch;
        int h, w, gh, gw, stride, y0, x0;
        int n = 0, oy = 0, ox = 0, ix = 0;
        size_t row = 0;
        bool row_valid = false;

        void
        locateRow()
        {
            int iy = oy * stride + y0;
            row_valid = iy >= 0 && iy < h;
            if (row_valid)
                row = c_off + (size_t)n * batch + (size_t)iy * w;
            ix = x0;
        }

        float
        next()
        {
            float v = row_valid && ix >= 0 && ix < w ? data[row + ix] : 0.0f;
            ix += stride;
            if (++ox == gw) {
                ox = 0;
                if (++oy == gh) {
                    oy = 0;
                    ++n;
                }
                locateRow();
            }
            return v;
        }
    };

    Cursor
    cursor(int t) const
    {
        const Shape &s = acts.shape();
        int kx = t % kw;
        int ky = (t / kw) % kh;
        int c = t / (kh * kw);
        Cursor cur{acts.data(), (size_t)c * s.h * s.w,
                   (size_t)s.c * s.h * s.w, s.h, s.w, gh, gw, spec.stride,
                   ky - spec.pad, kx - spec.pad};
        cur.locateRow();
        return cur;
    }
};

/** Build the operand stream for one output of one side. */
template <class Side>
BlockStream
buildStream(const Side &side, int out_id, int reduction_len, int lanes,
            int steps, bool with_values, float *row)
{
    BlockStream stream(lanes, with_values);
    stream.reserve(steps);
    auto cur = side.cursor(out_id);
    int left = reduction_len;
    for (int step = 0; step < steps; ++step) {
        int n = std::min(lanes, left);
        left -= n;
        if (with_values) {
            for (int l = 0; l < n; ++l)
                row[l] = cur.next();
            std::fill(row + n, row + lanes, 0.0f);
            stream.appendValueRow(row);
        } else {
            uint32_t mask = 0;
            for (int l = 0; l < n; ++l)
                mask |= (uint32_t)(cur.next() != 0.0f) << l;
            stream.appendMaskRow(mask);
        }
    }
    return stream;
}

/**
 * Shared lowering core: grid partitioning, sampling, stream building.
 * A streams are gathered only in value mode; mask-mode jobs record the
 * column count alone, since the schedule reads nothing from A.
 */
template <class BSide, class ASide>
LoweredOp
lowerGeneric(const DataflowConfig &cfg, TrainOp op, const BSide &b,
             const ASide &a, int reduction_len, const Shape &out_shape)
{
    TD_ASSERT(reduction_len > 0, "empty reduction dimension");
    TD_ASSERT(b.count > 0 && a.count > 0, "empty output grid");

    LoweredOp lowered;
    lowered.op = op;
    lowered.out_shape = out_shape;
    lowered.steps = (reduction_len + cfg.lanes - 1) / cfg.lanes;
    lowered.rows_per_job = cfg.rows;
    lowered.cols_per_job = cfg.cols;

    uint64_t jobs_b = (b.count + cfg.rows - 1) / cfg.rows;
    uint64_t jobs_a = (a.count + cfg.cols - 1) / cfg.cols;
    lowered.jobs_a = jobs_a;
    lowered.total_jobs = jobs_b * jobs_a;
    lowered.total_mac_slots = (uint64_t)lowered.steps * cfg.lanes *
                              (uint64_t)b.count * (uint64_t)a.count;

    uint64_t macs_per_job = (uint64_t)lowered.steps * cfg.lanes *
                            cfg.rows * cfg.cols;
    uint64_t max_jobs = lowered.total_jobs;
    if (cfg.max_sampled_macs > 0) {
        max_jobs = std::max<uint64_t>(1,
            cfg.max_sampled_macs / std::max<uint64_t>(1, macs_per_job));
        max_jobs = std::min(max_jobs, lowered.total_jobs);
    }

    // Stratified deterministic sampling over the job grid.
    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ull + (uint64_t)op * 131);
    std::vector<uint64_t> &picks = lowered.job_cells;
    picks.reserve(max_jobs);
    if (max_jobs == lowered.total_jobs) {
        for (uint64_t j = 0; j < lowered.total_jobs; ++j)
            picks.push_back(j);
    } else {
        double stride = (double)lowered.total_jobs / (double)max_jobs;
        double offset = rng.uniform() * stride;
        uint64_t prev = lowered.total_jobs;
        for (uint64_t k = 0; k < max_jobs; ++k) {
            auto j = (uint64_t)(offset + (double)k * stride);
            if (j >= lowered.total_jobs)
                j = lowered.total_jobs - 1;
            if (j == prev)
                continue;
            picks.push_back(j);
            prev = j;
        }
    }
    lowered.sampled_jobs = picks.size();
    double weight = (double)lowered.total_jobs /
                    (double)lowered.sampled_jobs;

    std::vector<float> row_scratch(cfg.lanes, 0.0f);
    lowered.jobs.reserve(picks.size());
    for (uint64_t j : picks) {
        int b_lo = (int)(j / jobs_a * cfg.rows);
        int a_lo = (int)(j % jobs_a * cfg.cols);
        int nrows = std::min(cfg.rows, b.count - b_lo);
        TileJob &job = lowered.jobs.emplace_back();
        job.weight = weight;
        job.cols = std::min(cfg.cols, a.count - a_lo);
        job.b.reserve(nrows);
        for (int r = 0; r < nrows; ++r) {
            job.b.push_back(buildStream(b, b_lo + r, reduction_len,
                                        cfg.lanes, lowered.steps,
                                        cfg.with_values,
                                        row_scratch.data()));
            lowered.b_nonzero_slots += job.b.back().nonzeros();
            lowered.b_total_slots += job.b.back().slots();
        }
        if (cfg.with_values) {
            job.a.reserve(job.cols);
            for (int c = 0; c < job.cols; ++c)
                job.a.push_back(buildStream(a, a_lo + c, reduction_len,
                                            cfg.lanes, lowered.steps, true,
                                            row_scratch.data()));
        }
    }
    return lowered;
}

} // namespace

LoweredOp
Dataflow::lowerForward(const Tensor &acts, const Tensor &weights,
                       const ConvSpec &spec, FwdSide side) const
{
    const Shape &as = acts.shape();
    const Shape &ws = weights.shape();
    TD_ASSERT(as.c == ws.c, "channel mismatch in forward lowering");
    int oh = spec.outDim(as.h, ws.h);
    int ow = spec.outDim(as.w, ws.w);
    int chans = as.c;
    int taps = ws.h * ws.w;

    if (side == FwdSide::Auto) {
        side = weights.sparsity() > acts.sparsity()
            ? FwdSide::Weights : FwdSide::Activations;
    }

    // Reduction order: (ky, kx) outer, channel inner, so each lane row
    // holds 16 consecutive channels (the paper's 16-value blocks).
    FwdWindowSide windows{as.n * oh * ow, acts, spec, oh, ow, ws.h, ws.w};
    // Filter f at reduction (k, c) reads W[f, c, k].
    StridedSide filters{ws.n, weights.data(), (size_t)chans * taps, chans,
                        (size_t)taps, 1};

    LoweredOp lowered = side == FwdSide::Activations
        ? lowerGeneric(config_, TrainOp::Forward, windows, filters,
                       chans * taps, Shape{as.n, ws.n, oh, ow})
        : lowerGeneric(config_, TrainOp::Forward, filters, windows,
                       chans * taps, Shape{as.n, ws.n, oh, ow});
    lowered.b_is_default_side = side == FwdSide::Activations;
    return lowered;
}

LoweredOp
Dataflow::lowerBackwardData(const Tensor &out_grads, const Tensor &weights,
                            const Shape &input_shape, const ConvSpec &spec,
                            BwdDataSide side) const
{
    const Shape &gs = out_grads.shape();
    const Shape &ws = weights.shape();
    TD_ASSERT(gs.c == ws.n, "filter mismatch in backward-data lowering");
    TD_ASSERT(input_shape.c == ws.c,
              "channel mismatch in backward-data lowering");
    int filters = ws.n;
    int taps = ws.h * ws.w;

    if (side == BwdDataSide::Auto) {
        side = weights.sparsity() > out_grads.sparsity()
            ? BwdDataSide::Weights : BwdDataSide::Gradients;
    }

    // Reduction order: (ky, kx) outer, filter inner.  The B side gathers
    // the stride-dilated gradient windows of Eq. 6.
    BwdDataWindowSide windows{
        input_shape.n * input_shape.h * input_shape.w, out_grads, spec,
        input_shape.h, input_shape.w, ws.h, ws.w};
    // The A side is the reconstructed filter bank: channel c's stream
    // holds W[f, c, ky, kx] (the 180-degree rotation is implicit in the
    // matching gather order on the B side).
    StridedSide bank{input_shape.c, weights.data(), (size_t)taps, filters,
                     (size_t)ws.c * taps, 1};

    LoweredOp lowered = side == BwdDataSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardData, windows, bank,
                       filters * taps, input_shape)
        : lowerGeneric(config_, TrainOp::BackwardData, bank, windows,
                       filters * taps, input_shape);
    lowered.b_is_default_side = side == BwdDataSide::Gradients;
    return lowered;
}

LoweredOp
Dataflow::lowerBackwardWeights(const Tensor &out_grads, const Tensor &acts,
                               int kernel_h, int kernel_w,
                               const ConvSpec &spec, WgSide side) const
{
    const Shape &gs = out_grads.shape();
    const Shape &as = acts.shape();
    TD_ASSERT(gs.n == as.n, "batch mismatch in backward-weights lowering");

    if (side == WgSide::Auto) {
        // The paper targets GO or A, whichever is sparser (section 2).
        side = out_grads.sparsity() >= acts.sparsity()
            ? WgSide::Gradients : WgSide::Activations;
    }

    // Reduction order: (n, oy) outer, ox inner.  Filter f's gradient
    // map is one contiguous oh x ow plane per sample.
    size_t map = (size_t)gs.h * gs.w;
    StridedSide grad_side{gs.c, out_grads.data(), map, (int)map, 1,
                          (size_t)gs.c * map};
    WgTapSide act_side{as.c * kernel_h * kernel_w, acts, spec, gs.h, gs.w,
                       kernel_h, kernel_w};

    Shape out_shape{gs.c, as.c, kernel_h, kernel_w};
    int reduction = gs.n * gs.h * gs.w;
    LoweredOp lowered = side == WgSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardWeights, grad_side,
                       act_side, reduction, out_shape)
        : lowerGeneric(config_, TrainOp::BackwardWeights, act_side,
                       grad_side, reduction, out_shape);
    lowered.wg_b_is_gradients = side == WgSide::Gradients;
    return lowered;
}

namespace {

/** Matmul operands carry no spatial extent. */
void
assertMatmulShape(const Tensor &t, const char *what)
{
    TD_ASSERT(t.shape().h == 1 && t.shape().w == 1,
              "fc lowering wants 1x1 spatial %s, got %dx%d", what,
              t.shape().h, t.shape().w);
}

} // namespace

LoweredOp
Dataflow::lowerFcForward(const Tensor &acts, const Tensor &weights,
                         FwdSide side) const
{
    const Shape &as = acts.shape();
    const Shape &ws = weights.shape();
    TD_ASSERT(as.c == ws.c, "channel mismatch in fc forward lowering");
    assertMatmulShape(acts, "activations");
    assertMatmulShape(weights, "weights");

    if (side == FwdSide::Auto) {
        side = weights.sparsity() > acts.sparsity()
            ? FwdSide::Weights : FwdSide::Activations;
    }

    // Rows of A (one per sample) against rows of W (one per output
    // feature), reduced over in_c in lane-wide blocks.
    StridedSide b{as.n, acts.data(), (size_t)as.c, as.c, 1};
    StridedSide a{ws.n, weights.data(), (size_t)ws.c, ws.c, 1};

    LoweredOp lowered = side == FwdSide::Activations
        ? lowerGeneric(config_, TrainOp::Forward, b, a, as.c,
                       Shape{as.n, ws.n, 1, 1})
        : lowerGeneric(config_, TrainOp::Forward, a, b, as.c,
                       Shape{as.n, ws.n, 1, 1});
    lowered.b_is_default_side = side == FwdSide::Activations;
    return lowered;
}

LoweredOp
Dataflow::lowerFcBackwardData(const Tensor &out_grads,
                              const Tensor &weights,
                              const Shape &input_shape,
                              BwdDataSide side) const
{
    const Shape &gs = out_grads.shape();
    const Shape &ws = weights.shape();
    TD_ASSERT(gs.c == ws.n,
              "filter mismatch in fc backward-data lowering");
    TD_ASSERT(input_shape.c == ws.c,
              "channel mismatch in fc backward-data lowering");
    assertMatmulShape(out_grads, "gradients");
    assertMatmulShape(weights, "weights");

    if (side == BwdDataSide::Auto) {
        side = weights.sparsity() > out_grads.sparsity()
            ? BwdDataSide::Weights : BwdDataSide::Gradients;
    }

    // GA = GO x W: gradient rows against weight columns, reduced over
    // the out_c features.
    StridedSide b{input_shape.n, out_grads.data(), (size_t)gs.c, gs.c, 1};
    StridedSide a{input_shape.c, weights.data(), 1, ws.n, (size_t)ws.c};

    LoweredOp lowered = side == BwdDataSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardData, b, a, ws.n,
                       input_shape)
        : lowerGeneric(config_, TrainOp::BackwardData, a, b, ws.n,
                       input_shape);
    lowered.b_is_default_side = side == BwdDataSide::Gradients;
    return lowered;
}

LoweredOp
Dataflow::lowerFcBackwardWeights(const Tensor &out_grads,
                                 const Tensor &acts, WgSide side) const
{
    const Shape &gs = out_grads.shape();
    const Shape &as = acts.shape();
    TD_ASSERT(gs.n == as.n,
              "batch mismatch in fc backward-weights lowering");
    assertMatmulShape(out_grads, "gradients");
    assertMatmulShape(acts, "activations");

    if (side == WgSide::Auto) {
        side = out_grads.sparsity() >= acts.sparsity()
            ? WgSide::Gradients : WgSide::Activations;
    }

    // GW = GO^T x A: per-feature gradient columns against per-input
    // activation columns, reduced over the batch.
    StridedSide grad_side{gs.c, out_grads.data(), 1, gs.n, (size_t)gs.c};
    StridedSide act_side{as.c, acts.data(), 1, as.n, (size_t)as.c};

    Shape out_shape{gs.c, as.c, 1, 1};
    LoweredOp lowered = side == WgSide::Gradients
        ? lowerGeneric(config_, TrainOp::BackwardWeights, grad_side,
                       act_side, gs.n, out_shape)
        : lowerGeneric(config_, TrainOp::BackwardWeights, act_side,
                       grad_side, gs.n, out_shape);
    lowered.wg_b_is_gradients = side == WgSide::Gradients;
    return lowered;
}

void
Dataflow::scatter(const LoweredOp &lowered, size_t job_index,
                  const std::vector<std::vector<double>> &outputs,
                  Tensor &result)
{
    TD_ASSERT(result.shape() == lowered.out_shape,
              "scatter target shape mismatch");
    const TileJob &job = lowered.jobs[job_index];
    uint64_t cell = lowered.job_cells[job_index];
    int b_lo = (int)(cell / lowered.jobs_a * lowered.rows_per_job);
    int a_lo = (int)(cell % lowered.jobs_a * lowered.cols_per_job);
    const Shape &os = lowered.out_shape;

    for (int r = 0; r < (int)job.b.size(); ++r) {
        for (int c = 0; c < job.cols; ++c) {
            float v = (float)outputs[r][c];
            int b_id = b_lo + r;
            int a_id = a_lo + c;
            switch (lowered.op) {
              case TrainOp::Forward: {
                // Default: b = window (n, oy, ox), a = filter f;
                // flipped when the weights were the scheduled side.
                int window = lowered.b_is_default_side ? b_id : a_id;
                int filter = lowered.b_is_default_side ? a_id : b_id;
                int ox = window % os.w;
                int oy = (window / os.w) % os.h;
                int n = window / (os.h * os.w);
                result.at(n, filter, oy, ox) = v;
                break;
              }
              case TrainOp::BackwardData: {
                // Default: b = input position (n, iy, ix), a = channel.
                int pos = lowered.b_is_default_side ? b_id : a_id;
                int chan = lowered.b_is_default_side ? a_id : b_id;
                int ix = pos % os.w;
                int iy = (pos / os.w) % os.h;
                int n = pos / (os.h * os.w);
                result.at(n, chan, iy, ix) = v;
                break;
              }
              case TrainOp::BackwardWeights: {
                int f = lowered.wg_b_is_gradients ? b_id : a_id;
                int t = lowered.wg_b_is_gradients ? a_id : b_id;
                int kx = t % os.w;
                int ky = (t / os.w) % os.h;
                int ch = t / (os.h * os.w);
                result.at(f, ch, ky, kx) = v;
                break;
              }
            }
        }
    }
}

} // namespace tensordash
