#ifndef TENSORDASH_BENCH_BENCH_UTIL_HH_
#define TENSORDASH_BENCH_BENCH_UTIL_HH_

/**
 * @file
 * Shared helpers for the benchmark harness.
 *
 * td-fig regenerates any registered figure (core/figures.hh) and the
 * other bench binaries one table or measurement each; all print their
 * rows/series plus the paper-reported reference values where the text
 * states them.  Set TD_FAST=1 to run with reduced sampling (quick
 * smoke of the whole harness).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "core/tensordash.hh"

/*
 * google-benchmark is optional.  The build system defines
 * TENSORDASH_HAVE_BENCHMARK when find_package(benchmark) succeeds;
 * microbenchmarks guard their timed bodies on it and fall back to
 * bench::benchmarkUnavailable() so they always compile and link.
 */
#if !defined(TENSORDASH_HAVE_BENCHMARK)
#define TENSORDASH_HAVE_BENCHMARK 0
#endif

namespace tensordash {
namespace bench {

/**
 * Shared command line of td-fig and the measurement benches, so every
 * sweep can be scripted uniformly:
 *
 *   --threads N      simulation parallelism (default: TD_THREADS or
 *                    all cores; the shared ThreadPool serves every
 *                    figure)
 *   --reps N         repeat the figure N times and report wall-clock
 *                    per repetition (for scaling measurements)
 *   --csv PATH       also write the figure's table as CSV to PATH
 *   --json PATH      write machine-readable run stats (wall-clock ms,
 *                    cells, cache/synth counters, fission subtasks) to
 *                    PATH — the perf-trajectory artifact CI uploads
 *   --cache-dir DIR  on-disk result cache shared across runs and
 *                    processes (default: the TD_CACHE environment
 *                    variable; in-memory memoisation is always on)
 *   --estimate       serve every cell from the closed-form estimator
 *                    (Fidelity::Estimate) instead of simulating —
 *                    triage output, not simulation results; estimate
 *                    cells cache under their own keys and never
 *                    touch exact blobs
 *
 * Farming one figure's grid out across processes is td-sweepd's job
 * (see tools/td_sweepd.cc), not td-fig's.
 */
struct Options
{
    int threads = 0;
    int reps = 1;
    std::string csv;
    std::string json;
    std::string cache_dir;
    bool estimate = false;
};

/** Print the shared CLI's usage; @p figure_arg adds td-fig's FIGURE
 * argument and the registry's figure list. */
inline void
usage(const char *binary, FILE *out, bool figure_arg)
{
    std::fprintf(
        out,
        "usage: %s [--threads N] [--reps N] [--csv PATH]%s\n"
        "  --threads N      worker threads (default: TD_THREADS or "
        "all cores)\n"
        "  --reps N         repeat the figure N times, timing each "
        "rep\n"
        "  --csv PATH       also write the figure's table as CSV to "
        "PATH\n"
        "  --json PATH      write machine-readable run stats to PATH\n"
        "  --cache-dir DIR  on-disk result cache (default: TD_CACHE "
        "env)\n"
        "  --estimate       closed-form estimate tier (triage only, "
        "not simulation results)\n",
        binary, figure_arg ? " FIGURE" : "");
    if (!figure_arg)
        return;
    std::fprintf(out, "figures:\n");
    for (const FigureDef &f : figureRegistry())
        std::fprintf(out, "  %-22s %s\n", f.name, f.title);
}

/**
 * Parse the shared CLI; exits on --help, bad values or unknown
 * options.  With @p figure (td-fig) one positional FIGURE name is
 * required and stored there; without it none is accepted.
 */
inline Options
parseArgs(int argc, char **argv, std::string *figure = nullptr)
{
    Options opts;
    const bool figure_arg = figure != nullptr;
    auto fail = [&]() {
        usage(argv[0], stderr, figure_arg);
        std::exit(1);
    };
    auto value = [&](int &i) -> const char * {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s: missing value for %s\n", argv[0],
                         argv[i]);
            fail();
        }
        return argv[++i];
    };
    auto intValue = [&](int &i, long min) -> int {
        const char *flag = argv[i];
        const char *text = value(i);
        char *end = nullptr;
        long v = std::strtol(text, &end, 10);
        if (end == text || *end != '\0' || v < min || v > 4096) {
            std::fprintf(stderr,
                         "%s: bad value '%s' for %s (want an integer "
                         "in [%ld, 4096])\n",
                         argv[0], text, flag, min);
            std::exit(1);
        }
        return (int)v;
    };
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            usage(argv[0], stdout, figure_arg);
            std::exit(0);
        } else if (arg == "--threads") {
            opts.threads = intValue(i, 0); // 0 = TD_THREADS/auto
        } else if (arg == "--reps") {
            opts.reps = intValue(i, 1);
        } else if (arg == "--csv") {
            opts.csv = value(i);
        } else if (arg == "--json") {
            opts.json = value(i);
        } else if (arg == "--cache-dir") {
            opts.cache_dir = value(i);
        } else if (arg == "--estimate") {
            opts.estimate = true;
        } else if (figure_arg && arg[0] != '-' && figure->empty()) {
            *figure = arg;
        } else {
            std::fprintf(stderr, "%s: unexpected argument '%s'\n",
                         argv[0], arg.c_str());
            fail();
        }
    }
    if (figure_arg && figure->empty()) {
        std::fprintf(stderr, "%s: missing FIGURE\n", argv[0]);
        fail();
    }
    return opts;
}

/** Apply the shared CLI's execution knobs (thread count, cache
 * directory) and --estimate to a figure's base configuration. */
inline void
applyOptions(RunConfig &cfg, const Options &opts)
{
    cfg.threads = opts.threads;
    cfg.cache_dir = opts.cache_dir;
    if (opts.estimate)
        cfg.fidelity = Fidelity::Estimate;
}

/** Print a table and, when requested, write it as CSV (fatal when the
 * CSV cannot be written in full). */
inline void
emit(const Table &t, const Options &opts)
{
    t.print();
    if (opts.csv.empty())
        return;
    if (!t.writeCsv(opts.csv)) {
        TD_FATAL("cannot write CSV to '%s'", opts.csv.c_str());
        return; // unreachable unless throw-mode swallows the fatal
    }
    std::printf("csv written to %s\n", opts.csv.c_str());
}

/**
 * Counters of the most recent sweep reported through reportCache(),
 * plus the last repetition's wall-clock — the payload of --json.  A
 * process-wide mutable singleton is fine here: bench binaries render
 * one figure from one thread.
 */
struct BenchJsonStats
{
    size_t tasks = 0;
    size_t cells = 0;
    size_t cache_hits = 0;
    size_t estimated = 0;
    size_t simulated = 0;
    size_t fission_subtasks = 0;
    size_t synth_keys = 0;
    size_t synth_reuses = 0;
    double wall_ms = 0.0;

    static BenchJsonStats &
    instance()
    {
        static BenchJsonStats stats;
        return stats;
    }
};

/** Write the collected run stats as JSON (no-op without --json). */
inline void
writeBenchJson(const Options &opts, int threads)
{
    if (opts.json.empty())
        return;
    const BenchJsonStats &s = BenchJsonStats::instance();
    FILE *f = std::fopen(opts.json.c_str(), "w");
    if (!f) {
        TD_FATAL("cannot write JSON to '%s'", opts.json.c_str());
        return; // unreachable unless throw-mode swallows the fatal
    }
    std::fprintf(f,
                 "{\n"
                 "  \"wall_ms\": %.3f,\n"
                 "  \"threads\": %d,\n"
                 "  \"reps\": %d,\n"
                 "  \"tasks\": %zu,\n"
                 "  \"cells\": %zu,\n"
                 "  \"cache_hits\": %zu,\n"
                 "  \"estimated\": %zu,\n"
                 "  \"simulated\": %zu,\n"
                 "  \"fission_subtasks\": %zu,\n"
                 "  \"synth_keys\": %zu,\n"
                 "  \"synth_reuses\": %zu\n"
                 "}\n",
                 s.wall_ms, threads, opts.reps, s.tasks, s.cells,
                 s.cache_hits, s.estimated, s.simulated,
                 s.fission_subtasks, s.synth_keys, s.synth_reuses);
    std::fclose(f);
    std::printf("json written to %s\n", opts.json.c_str());
}

/**
 * Build-and-emit loop: runs @p build opts.reps times, reporting the
 * wall-clock of every repetition, and emits the last table.  Figures
 * route their whole computation through build() so --reps times the
 * complete sweep.
 *
 * With --reps > 1 the in-process result memo is cleared before every
 * repetition: --reps exists to measure simulation wall-clock (e.g.
 * thread scaling), and serving reps 2..N from the memo would time
 * hash lookups instead.  An explicit --cache-dir/TD_CACHE disk cache
 * is the user's call and still applies.
 */
template <typename BuildFn>
inline void
runFigure(const Options &opts, BuildFn &&build)
{
    int threads =
        opts.threads > 0 ? opts.threads : ThreadPool::defaultThreadCount();
    for (int rep = 0; rep < opts.reps; ++rep) {
        if (opts.reps > 1)
            ResultStore::shared().clearMemo();
        auto start = std::chrono::steady_clock::now();
        Table t = build();
        double ms = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
        if (rep == opts.reps - 1)
            emit(t, opts);
        std::printf("[rep %d/%d] %.0f ms (%d thread%s)\n", rep + 1,
                    opts.reps, ms, threads, threads == 1 ? "" : "s");
        BenchJsonStats::instance().wall_ms = ms;
    }
    writeBenchJson(opts, threads);
}

/** Report the sweep's cache effectiveness plus the process-wide
 * store's hit/miss/insert split (CI greps this line; `simulated=`
 * stays the final field so `simulated=0$` anchors).  The `[synth]`
 * line reports the process-wide synthesis cache the same way: a cold
 * N-variant geometry sweep shows `keys=` at the single-variant cell
 * count, `resident=` at 0 bytes (every entry died with its last
 * consumer) and `reuses=` covering the other N-1 variants (CI anchors
 * on it; `keys=` stays the first field and `reuses=` the final one). */
inline void
reportCache(const SweepResult &sweep)
{
    const CacheCounters c = ResultStore::shared().counters();
    std::printf("[cache] tasks=%zu cells=%zu hits=%zu memo=%zu "
                "disk=%zu misses=%zu inserts=%zu estimated=%zu "
                "simulated=%zu\n",
                sweep.taskCount(), sweep.cellCount(), sweep.cache_hits,
                (size_t)c.memo_hits, (size_t)c.disk_hits,
                (size_t)c.misses, (size_t)c.inserts, sweep.estimated,
                sweep.simulated);
    const SynthCounters s = SynthCache::shared().counters();
    std::printf("[synth] keys=%zu resident=%llu reuses=%zu\n",
                (size_t)s.keys,
                (unsigned long long)SynthCache::shared().residentBytes(),
                (size_t)s.reuses);

    BenchJsonStats &j = BenchJsonStats::instance();
    j.tasks = sweep.taskCount();
    j.cells = sweep.cellCount();
    j.cache_hits = sweep.cache_hits;
    j.estimated = sweep.estimated;
    j.simulated = sweep.simulated;
    j.fission_subtasks = sweep.fission_subtasks;
    j.synth_keys = (size_t)s.keys;
    j.synth_reuses = (size_t)s.reuses;
}

/** Print the figure banner. */
inline void
banner(const char *title)
{
    std::printf("=== %s ===\n", title);
    if (fastMode())
        std::printf("(TD_FAST=1: reduced sampling)\n");
}

/** Print a paper-reference footnote. */
inline void
reference(const char *text)
{
    std::printf("paper reference: %s\n", text);
}

/** Stub body for microbenchmarks when google-benchmark is absent. */
inline int
benchmarkUnavailable(const char *binary)
{
    std::printf("%s: built without google-benchmark; nothing to run.\n"
                "Install google-benchmark and reconfigure to enable "
                "this microbenchmark.\n", binary);
    return 0;
}

} // namespace bench
} // namespace tensordash

#endif // TENSORDASH_BENCH_BENCH_UTIL_HH_
