/**
 * @file
 * td-perfbench: the repository benchmark harness.
 *
 *   td-perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                --sweepd PATH --golden-dir DIR --work-dir DIR
 *                --trace-out FILE
 *
 * Workloads (one process, at most min(nproc, 4) threads):
 *
 *   cold-train      fig13 grid (paper suite, training, Analytic
 *                   memory, 600k sampling), cold: memo and SynthCache
 *                   cleared and a fresh on-disk cache dir per sweep.
 *   geometry-sweep  fig22 grid (6 tile counts x the suite, Pipelined
 *                   memory, 250k sampling), cold, result cache off.
 *   warm-serve      a td-sweepd child (2 workers x 2 threads) on a
 *                   fresh socket and cache; after the fill, a closed
 *                   loop of warm jobs from one client, round-robin over
 *                   fig13, fig13 x phase axis and fig13 at estimate
 *                   fidelity.
 *
 * --trace 0 times the workload for --seconds and prints the end-to-end
 * metrics; --trace 1 runs the traced per-layer replay instead and
 * prints the per-layer metrics, writing its spans to --trace-out as
 * Chrome trace-event JSON.  The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}.  An op (a timed
 * sweep, a job, a replay check or a daemon stop) fails on an
 * exception, an error frame, a mismatched output or a breached daemon
 * drain contract.
 */

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/tensordash.hh"
#include "figures.hh"
#include "replay.hh"
#include "sweepd_client.hh"
#include "trace.hh"

using namespace tensordash;
using namespace perfbench;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

namespace {

struct Options
{
    std::string workload;
    uint64_t seed = kGoldenSeed;
    int seconds = 20;
    int trace = 0;
    std::string sweepd;
    std::string golden_dir = "bench/golden";
    std::string work_dir;
    std::string trace_out;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Linear-interpolated quantile of @p v (q in [0, 1]); 0 when empty. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * (double)(v.size() - 1);
    size_t lo = (size_t)pos;
    size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - (double)lo);
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/** Average ranks (ties share their mean rank). */
std::vector<double>
ranks(const std::vector<double> &v)
{
    std::vector<size_t> idx(v.size());
    std::iota(idx.begin(), idx.end(), 0);
    std::sort(idx.begin(), idx.end(),
              [&](size_t a, size_t b) { return v[a] < v[b]; });
    std::vector<double> r(v.size());
    for (size_t i = 0; i < idx.size();) {
        size_t j = i;
        while (j + 1 < idx.size() && v[idx[j + 1]] == v[idx[i]])
            ++j;
        for (size_t k = i; k <= j; ++k)
            r[idx[k]] = 0.5 * (double)(i + j);
        i = j + 1;
    }
    return r;
}

/** Spearman rank correlation of two equally long series. */
double
spearman(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> ra = ranks(a), rb = ranks(b);
    double n = (double)ra.size();
    if (n < 2)
        return 0.0;
    double ma = std::accumulate(ra.begin(), ra.end(), 0.0) / n;
    double mb = std::accumulate(rb.begin(), rb.end(), 0.0) / n;
    double sab = 0.0, saa = 0.0, sbb = 0.0;
    for (size_t i = 0; i < ra.size(); ++i) {
        sab += (ra[i] - ma) * (rb[i] - mb);
        saa += (ra[i] - ma) * (ra[i] - ma);
        sbb += (rb[i] - mb) * (rb[i] - mb);
    }
    return saa > 0 && sbb > 0 ? sab / std::sqrt(saa * sbb) : 0.0;
}

/** The run's outcome: op counts plus named metrics in print order. */
struct Report
{
    size_t attempted = 0;
    size_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void
    op(bool ok, const std::string &what = "")
    {
        ++attempted;
        if (!ok) {
            ++failed;
            std::fprintf(stderr, "perfbench: failed op: %s\n",
                         what.c_str());
        }
    }

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, {std::isfinite(value) ? value : 0.0,
                                  unit}});
    }

    void
    print() const
    {
        std::printf("{\"correct\": %s, \"attempted\": %zu, "
                    "\"failed\": %zu, \"metrics\": {",
                    failed == 0 ? "true" : "false", attempted, failed);
        for (size_t i = 0; i < metrics.size(); ++i)
            std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                        i ? ", " : "", metrics[i].first.c_str(),
                        metrics[i].second.first,
                        metrics[i].second.second.c_str());
        std::printf("}}\n");
        std::fflush(stdout);
    }
};

/**
 * Per-layer metrics and their units, in print order.  Every traced run
 * prints all of them; a layer a workload never reaches reads 0
 * (nothing is synthesized on warm-serve, no daemon runs on the sweep
 * workloads).
 */
const std::pair<const char *, const char *> kPerLayer[] = {
    {"models.synth_calls", "count"},
    {"models.synth_s", "s"},
    {"models.synth_melem_per_s", "1/s"},
    {"models.synth_share", "ratio"},
    {"tensor.sparsity_s", "s"},
    {"sim.dataflow.lower_s", "s"},
    {"sim.dataflow.jobs", "count"},
    {"sim.tile.run_s", "s"},
    {"sim.tile.jobs_per_s", "1/s"},
    {"sim.memory.apply_s", "s"},
    {"sim.energy_s", "s"},
    {"core.synth_cache.keys", "count"},
    {"core.synth_cache.reuses", "count"},
    {"core.synth_cache.resident_mb", "MB"},
    {"core.runner.simulated", "count"},
    {"core.runner.fission_subtasks", "count"},
    {"core.runner.self_s", "s"},
    {"core.runner.parallel_eff", "ratio"},
    {"core.result_store.insert_us_p50", "us"},
    {"core.result_store.lookup_us_p50", "us"},
    {"core.result_store.hits", "count"},
    {"core.result_store.misses", "count"},
    {"core.result_store.inserts", "count"},
    {"sim.estimator.plan_ms", "ms"},
    {"sim.estimator.rank_corr", "ratio"},
    {"sim.estimator.cycle_err_p50", "ratio"},
    {"service.job_ms_p50", "ms"},
    {"service.job_ms_p90", "ms"},
    {"service.daemon_ms_p50", "ms"},
    {"service.client_overhead_ms_p50", "ms"},
    {"service.plan_ms", "ms"},
    {"service.result_frame_kb", "KB"},
    {"service.warm_ratio", "ratio"},
    {"service.worker_spawns", "count"},
    {"sim.base_cycles", "cycles"},
    {"sim.td_cycles", "cycles"},
    {"sim.speedup_mean", "x"},
    {"sim.memory.stall_fraction", "ratio"},
    {"sim.paper_speedup_err", "x"},
    {"bench.trace_overhead", "ratio"},
};

/** Per-layer values of one traced run; unset names print as 0. */
struct LayerMetrics
{
    std::map<std::string, double> values;

    double &operator[](const std::string &name) { return values[name]; }

    void
    emit(Report &report) const
    {
        for (const auto &[name, unit] : kPerLayer) {
            auto it = values.find(name);
            report.set(name, it == values.end() ? 0.0 : it->second, unit);
        }
    }
};

/** Modelled-design outputs of a sweep (repeat exactly per seed). */
void
designMetrics(const SweepResult &sweep, LayerMetrics &m)
{
    double base = 0.0, td = 0.0, stall = 0.0;
    for (const LayerResult &slot : sweep.layer_results)
        for (const OpCellResult &c : slot.cells) {
            base += c.op.base_cycles;
            td += c.op.td_cycles;
            stall += c.op.td_mem_stall_cycles;
        }
    m["sim.base_cycles"] = base;
    m["sim.td_cycles"] = td;
    m["sim.speedup_mean"] = sweep.meanSpeedup(0, 0);
    m["sim.memory.stall_fraction"] = td > 0 ? stall / td : 0.0;
    // Paper: 1.95x mean training speedup over the suite (Fig. 13).
    m["sim.paper_speedup_err"] = std::fabs(sweep.meanSpeedup(0, 0) - 1.95);
}

/** Reset this process's VmHWM to its current RSS, so the next read
 * gives one sweep's peak; false where the kernel refuses. */
bool
resetPeakRss()
{
    std::FILE *f = std::fopen("/proc/self/clear_refs", "w");
    if (!f)
        return false;
    bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok;
}

int
threadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return (int)std::clamp(hw ? hw : 1u, 1u, 4u);
}

/** A fresh directory under the work dir, named @p name. */
std::string
freshDir(const Options &opts, const std::string &name)
{
    fs::path p = fs::path(opts.work_dir) / name;
    fs::remove_all(p);
    fs::create_directories(p);
    return p.string();
}

// ---------------------------------------------------------------------
// Sweep workloads: cold-train and geometry-sweep.
// ---------------------------------------------------------------------

struct SweepWorkload
{
    const Options &opts;
    bool cold_train;
    service::JobSpec job;
    SweepSpec spec;
    RunConfig config;
    std::vector<GridCellInfo> plan;
    size_t sweeps_run = 0;

    SweepWorkload(const Options &o, bool train)
        : opts(o), cold_train(train),
          job(train ? fig13Job(o.seed) : fig22Job(o.seed))
    {
    }

    /** What a user does before sweeping: build the grid description
     * from the zoo and plan it (cell list and estimator costs).
     * Returns the seconds it took. */
    double
    setup()
    {
        const auto t0 = Clock::now();
        spec = job.toSweepSpec();
        config = job.baseConfig();
        config.cache = cold_train;
        plan = ModelRunner(config).planSweep(spec);
        return secondsSince(t0);
    }

    /** One cold sweep at @p threads: caches cleared and, on
     * cold-train, a fresh result-cache dir; returns seconds. */
    double
    coldSweep(int threads, SweepResult *out)
    {
        ResultStore::shared().clearMemo();
        SynthCache::shared().clear();
        RunConfig cfg = config;
        cfg.threads = threads;
        if (cold_train)
            cfg.cache_dir = freshDir(
                opts, "cache-" + std::to_string(sweeps_run++));
        const auto t0 = Clock::now();
        *out = ModelRunner(cfg).runSweep(spec);
        const double s = secondsSince(t0);
        if (cold_train)
            fs::remove_all(cfg.cache_dir);
        return s;
    }

    /** Check @p sweep: against the golden at the golden seed, else
     * against an untraced parallel replay of the grid. */
    std::string
    check(const SweepResult &sweep, int threads)
    {
        if (!sweep.complete())
            return "incomplete sweep";
        if (opts.seed == kGoldenSeed) {
            Table t = cold_train ? renderFig13(sweep) : renderFig22(sweep);
            return checkGolden(t.csv(),
                               opts.golden_dir + (cold_train
                                                      ? "/fig13.csv"
                                                      : "/fig22.csv"));
        }
        size_t bad = replayMismatches(
            replaySweep(job, nullptr, threads), sweep);
        return bad ? std::to_string(bad) + " cells differ from the replay"
                   : "";
    }

    void
    timed(Report &report)
    {
        const int threads = threadCount();
        std::vector<double> setups;
        for (int i = 0; i < 5; ++i)
            setups.push_back(setup());
        const double cells = (double)plan.size();

        // Warm-up: the first parallel sweep pays thread and allocator
        // start-up; it is the reference every timed sweep must match.
        SweepResult ref;
        coldSweep(threads, &ref);
        std::vector<double> times, rates, rss;
        const auto start = Clock::now();
        while (times.size() < 3 || secondsSince(start) < opts.seconds) {
            SweepResult sweep;
            try {
                const bool reset = resetPeakRss();
                double s = coldSweep(threads, &sweep);
                rss.push_back(reset ? peakRssMb() : 0.0);
                std::fprintf(stderr, "perfbench: sweep %zu: %.4f s\n",
                             times.size(), s);
                size_t bad = cellMismatches(sweep, ref);
                report.op(bad == 0, std::to_string(bad) +
                                        " cells differ from warm-up");
                times.push_back(s);
                rates.push_back(cells / s);
            } catch (const std::exception &e) {
                report.op(false, e.what());
            }
        }
        // Without a resettable peak, the process-lifetime peak.
        const double peak = median(rss) > 0 ? median(rss) : peakRssMb();
        std::string why = check(ref, threads);
        report.op(why.empty(), why);
        // Every timed sweep equals the warm-up, so a wrong warm-up
        // makes all of them wrong.
        if (!why.empty())
            report.failed = report.attempted;

        report.set("setup_s", median(setups), "s");
        report.set("sweep_s", median(times), "s");
        report.set("cells_per_s", median(rates), "1/s");
        report.set("peak_rss_mb", peak, "MB");
    }

    void
    traced(Report &report, Tracer &tracer)
    {
        const int threads = threadCount();
        setup();
        LayerMetrics m;

        SweepResult serial;
        const double serial_s = coldSweep(1, &serial);
        report.op(serial.complete(), "incomplete 1-thread sweep");
        designMetrics(serial, m);

        const std::string store_dir =
            cold_train ? freshDir(opts, "replay-store") : "";
        const auto t0 = Clock::now();
        ReplayResult replay = replaySweep(job, &tracer, 1, store_dir);
        const double replay_s = secondsSince(t0);
        const size_t bad = replayMismatches(replay, serial);
        report.op(bad == 0, std::to_string(bad) +
                                " replayed cells differ from the sweep");
        if (opts.seed == kGoldenSeed) {
            std::string why = check(serial, threads);
            report.op(why.empty(), why);
        }

        // N-thread sweeps for parallel efficiency and the runner's own
        // counters (synthesis reuse, fission, residency).
        std::vector<double> times;
        SweepResult sweep;
        for (int i = 0; i < 3; ++i) {
            SynthCache::shared().resetCounters();
            times.push_back(coldSweep(threads, &sweep));
            report.op(cellMismatches(sweep, serial) == 0,
                      "N-thread sweep differs from the 1-thread sweep");
        }
        const SynthCounters sc = SynthCache::shared().counters();
        m["core.synth_cache.keys"] = (double)sc.keys;
        m["core.synth_cache.reuses"] = (double)sc.reuses;
        m["core.synth_cache.resident_mb"] =
            (double)SynthCache::shared().residentBytes() / (1 << 20);
        m["core.runner.simulated"] = (double)sweep.simulated;
        m["core.runner.fission_subtasks"] =
            (double)sweep.fission_subtasks;

        const char *leaves[] = {
            "models.synthesize", "tensor.sparsity",
            "sim.dataflow.lower", "sim.tile.run", "sim.memory.apply",
            "sim.energy", "core.result_store.lookup",
            "core.result_store.insert"};
        double layer_s = 0.0;
        for (const char *leaf : leaves)
            layer_s += tracer.total(leaf);
        const double synth_s = tracer.total("models.synthesize");
        const double run_s = tracer.total("sim.tile.run");
        m["models.synth_calls"] = (double)replay.synth_calls;
        m["models.synth_s"] = synth_s;
        m["models.synth_melem_per_s"] = replay.synth_elems * 1e-6 / synth_s;
        m["models.synth_share"] = synth_s / layer_s;
        m["tensor.sparsity_s"] = tracer.total("tensor.sparsity");
        m["sim.dataflow.lower_s"] = tracer.total("sim.dataflow.lower");
        m["sim.dataflow.jobs"] = (double)replay.tile_jobs;
        m["sim.tile.run_s"] = run_s;
        m["sim.tile.jobs_per_s"] = (double)replay.tile_jobs / run_s;
        m["sim.memory.apply_s"] = tracer.total("sim.memory.apply");
        m["sim.energy_s"] = tracer.total("sim.energy");
        m["core.runner.self_s"] = serial_s - layer_s;
        m["core.runner.parallel_eff"] =
            layer_s / (threads * median(times));
        m["core.result_store.insert_us_p50"] = median(replay.insert_us);
        m["core.result_store.lookup_us_p50"] = median(replay.lookup_us);
        m["core.result_store.hits"] =
            (double)(replay.store.memo_hits + replay.store.disk_hits);
        m["core.result_store.misses"] = (double)replay.store.misses;
        m["core.result_store.inserts"] = (double)replay.store.inserts;
        m["sim.estimator.rank_corr"] =
            spearman(replay.est_cost, replay.cell_s);
        m["sim.estimator.cycle_err_p50"] = median(replay.cycle_err);
        m["bench.trace_overhead"] = replay_s / serial_s - 1.0;

        std::vector<double> plan_ms;
        for (int i = 0; i < 5; ++i) {
            auto p0 = Clock::now();
            ModelRunner(config).planSweep(spec);
            plan_ms.push_back(secondsSince(p0) * 1e3);
        }
        m["sim.estimator.plan_ms"] = median(plan_ms);
        if (!store_dir.empty())
            fs::remove_all(store_dir);
        m.emit(report);
    }
};

// ---------------------------------------------------------------------
// warm-serve: td-sweepd on a fresh socket and cache.
// ---------------------------------------------------------------------

struct ServeWorkload
{
    const Options &opts;
    int threads = threadCount();
    int daemons = 0;
    std::vector<service::JobSpec> jobs;
    SweepResult ref13;    ///< expected fig13 cells
    SweepResult ref_est;  ///< in-process estimate-tier fig13
    bool have_ref13 = false;

    explicit ServeWorkload(const Options &o) : opts(o)
    {
        jobs = {fig13Job(o.seed), fig13Job(o.seed, true),
                fig13Job(o.seed, false, true)};
    }

    /** In-process run of @p job at this workload's threads, cache
     * off. */
    SweepResult
    inProcess(const service::JobSpec &job)
    {
        RunConfig cfg = job.baseConfig();
        cfg.threads = threads;
        cfg.cache = false;
        return ModelRunner(cfg).runSweep(job.toSweepSpec());
    }

    /** References the jobs are checked against: the in-process
     * estimate sweep, and off the golden seed the in-process fig13
     * (at the golden seed the daemon's first fig13 result is checked
     * against bench/golden/fig13.csv and becomes the reference). */
    void
    references()
    {
        ref_est = inProcess(jobs[2]);
        if (opts.seed != kGoldenSeed) {
            ref13 = inProcess(jobs[0]);
            have_ref13 = true;
        }
    }

    /** Check one job's result; "" when it is correct. */
    std::string
    check(size_t which, const JobTiming &t)
    {
        if (!t.error.empty())
            return t.error;
        if (which == 0 && !have_ref13) {
            std::string why = checkGolden(renderFig13(t.sweep).csv(),
                                          opts.golden_dir + "/fig13.csv");
            if (!why.empty())
                return why;
            ref13 = t.sweep;
            have_ref13 = true;
        }
        size_t bad = which == 0 ? cellMismatches(t.sweep, ref13)
                     : which == 1 ? phaseMismatches(t.sweep, ref13)
                                  : cellMismatches(t.sweep, ref_est);
        return bad ? std::to_string(bad) + " cells differ (job " +
                         std::to_string(which) + ")"
                   : "";
    }

    /** Spawn a daemon on a fresh socket and cache and fill the cache
     * with every job; returns the seconds it took. */
    double
    spawnAndFill(Report &report, std::unique_ptr<SweepdProcess> *out)
    {
        const std::string tag = "d" + std::to_string(daemons++);
        const std::string cache = freshDir(opts, "cache-" + tag);
        const auto t0 = Clock::now();
        auto d = std::make_unique<SweepdProcess>(
            opts.sweepd, (fs::path(opts.work_dir) / (tag + ".sock")).string(),
            cache, (fs::path(opts.work_dir) / (tag + ".log")).string(),
            2, std::min(threads, 2), threads);
        if (!d->waitReady(30.0))
            throw std::runtime_error("td-sweepd did not come up");
        for (size_t j = 0; j < jobs.size(); ++j) {
            JobTiming t = submitJob(d->socket(), jobs[j]);
            std::string why = check(j, t);
            report.op(why.empty(), why);
        }
        const double s = secondsSince(t0);
        *out = std::move(d);
        return s;
    }

    void
    stopDaemon(Report &report, SweepdProcess &d)
    {
        std::string breach = d.stop();
        report.op(breach.empty(), "daemon drain: " + breach);
    }

    void
    timed(Report &report)
    {
        references();
        std::vector<double> setups;
        std::unique_ptr<SweepdProcess> daemon;
        for (int i = 0; i < 3; ++i) {
            if (daemon)
                stopDaemon(report, *daemon);
            setups.push_back(spawnAndFill(report, &daemon));
        }

        std::vector<double> latency, rates;
        const auto start = Clock::now();
        for (size_t i = 0;
             latency.size() < 100 || secondsSince(start) < opts.seconds;
             ++i) {
            const size_t which = i % jobs.size();
            JobTiming t = submitJob(daemon->socket(), jobs[which]);
            std::string why = check(which, t);
            report.op(why.empty(), why);
            if (!t.error.empty())
                continue;
            latency.push_back(t.total_ms * 1e-3);
            rates.push_back((double)t.sweep.cellCount() /
                            (t.total_ms * 1e-3));
        }
        const double rss = daemon->peakRssMb();
        stopDaemon(report, *daemon);

        report.set("setup_s", median(setups), "s");
        report.set("sweep_s", median(latency), "s");
        report.set("cells_per_s", median(rates), "1/s");
        report.set("peak_rss_mb", rss, "MB");
    }

    void
    traced(Report &report, Tracer &tracer)
    {
        references();
        std::unique_ptr<SweepdProcess> daemon;
        spawnAndFill(report, &daemon);
        LayerMetrics m;

        std::vector<double> total, served, overhead, plan, frame_kb;
        double warm = 0.0, cells = 0.0;
        for (size_t i = 0; i < 60; ++i) {
            const size_t which = i % jobs.size();
            JobTiming t = submitJob(daemon->socket(), jobs[which],
                                    &tracer);
            std::string why = check(which, t);
            report.op(why.empty(), why);
            if (!t.error.empty())
                continue;
            total.push_back(t.total_ms);
            served.push_back(t.daemon_ms);
            overhead.push_back(t.total_ms - t.daemon_ms);
            plan.push_back(t.plan_ms);
            frame_kb.push_back((double)t.result_bytes / 1024.0);
            warm += (double)t.first_progress.warm_cells;
            cells += (double)t.first_progress.total_cells;
        }
        m["service.job_ms_p50"] = median(total);
        m["service.job_ms_p90"] = quantile(total, 0.9);
        m["service.daemon_ms_p50"] = median(served);
        m["service.client_overhead_ms_p50"] = median(overhead);
        m["service.plan_ms"] = median(plan);
        m["service.result_frame_kb"] = median(frame_kb);
        m["service.warm_ratio"] = cells > 0 ? warm / cells : 0.0;

        // Replay of the daemon's warm path in-process: planning, and
        // every cell's disk read from the daemon's cache through a
        // private store (as the daemon's first warm probe reads it).
        ResultStore store;
        std::vector<double> lookup_us, plan_ms;
        for (size_t j = 0; j < jobs.size(); ++j) {
            const RunConfig cfg = jobs[j].baseConfig();
            const SweepSpec spec = jobs[j].toSweepSpec();
            std::vector<GridCellInfo> grid;
            {
                Tracer::Scope s(tracer, "sim.estimator.plan");
                auto p0 = Clock::now();
                grid = ModelRunner(cfg).planSweep(spec);
                if (j == 0)
                    plan_ms.push_back(secondsSince(p0) * 1e3);
            }
            for (const GridCellInfo &c : grid) {
                Tracer::Scope s(tracer, "core.result_store.lookup",
                                (int64_t)c.cell);
                OpCellResult cell;
                auto l0 = Clock::now();
                store.lookup(c.key, &cell, daemon->cacheDir());
                lookup_us.push_back(secondsSince(l0) * 1e6);
            }
        }
        for (int i = 0; i < 4; ++i) {
            auto p0 = Clock::now();
            ModelRunner(jobs[0].baseConfig()).planSweep(
                jobs[0].toSweepSpec());
            plan_ms.push_back(secondsSince(p0) * 1e3);
        }
        const CacheCounters cc = store.counters();
        m["core.result_store.lookup_us_p50"] = median(lookup_us);
        m["core.result_store.hits"] = (double)(cc.memo_hits + cc.disk_hits);
        m["core.result_store.misses"] = (double)cc.misses;
        m["core.result_store.inserts"] = (double)cc.inserts;
        m["sim.estimator.plan_ms"] = median(plan_ms);

        stopDaemon(report, *daemon);
        m["service.worker_spawns"] = (double)daemon->workerSpawns();
        m.emit(report);
    }
};

// ---------------------------------------------------------------------

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "td-perfbench: %s\n"
                 "usage: td-perfbench --workload cold-train|"
                 "geometry-sweep|warm-serve [--seed N] [--seconds S] "
                 "[--trace 0|1] --sweepd PATH --work-dir DIR "
                 "[--golden-dir DIR] [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *v = argv[++i];
        char *end = nullptr;
        if (arg == "--workload")
            o.workload = v;
        else if (arg == "--seed")
            o.seed = std::strtoull(v, &end, 10);
        else if (arg == "--seconds")
            o.seconds = (int)std::strtol(v, &end, 10);
        else if (arg == "--trace")
            o.trace = (int)std::strtol(v, &end, 10);
        else if (arg == "--sweepd")
            o.sweepd = v;
        else if (arg == "--golden-dir")
            o.golden_dir = v;
        else if (arg == "--work-dir")
            o.work_dir = v;
        else if (arg == "--trace-out")
            o.trace_out = v;
        else
            usage(("unknown option " + arg).c_str());
        if (end && *end != '\0')
            usage(("bad value for " + arg).c_str());
    }
    if (o.workload != "cold-train" && o.workload != "geometry-sweep" &&
        o.workload != "warm-serve")
        usage("unknown workload");
    if (o.seconds < 1 || (o.trace != 0 && o.trace != 1) ||
        o.work_dir.empty() ||
        (o.workload == "warm-serve" && o.sweepd.empty()))
        usage("bad arguments");
    return o;
}

extern "C" void
onFatalSignal(int sig)
{
    killLiveDaemons();
    ::_exit(128 + sig);
}

/** Removes the work dir on every exit path (after the daemons, which
 * are declared later and so stop first). */
struct WorkDir
{
    std::string path;
    ~WorkDir()
    {
        std::error_code ec;
        fs::remove_all(path, ec);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);
    ::signal(SIGTERM, onFatalSignal);
    ::signal(SIGINT, onFatalSignal);
    ::signal(SIGHUP, onFatalSignal);

    WorkDir work{opts.work_dir};
    fs::create_directories(opts.work_dir);
    Report report;
    Tracer tracer;
    try {
        if (opts.workload == "warm-serve") {
            ServeWorkload w(opts);
            if (opts.trace)
                w.traced(report, tracer);
            else
                w.timed(report);
        } else {
            SweepWorkload w(opts, opts.workload == "cold-train");
            if (opts.trace)
                w.traced(report, tracer);
            else
                w.timed(report);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "td-perfbench: %s\n", e.what());
        return 1;
    }
    if (opts.trace && !opts.trace_out.empty() &&
        !tracer.writeChrome(opts.trace_out))
        std::fprintf(stderr, "td-perfbench: cannot write trace '%s'\n",
                     opts.trace_out.c_str());
    report.print();
    return 0;
}
