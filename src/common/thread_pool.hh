#ifndef TENSORDASH_COMMON_THREAD_POOL_HH_
#define TENSORDASH_COMMON_THREAD_POOL_HH_

/**
 * @file
 * Shared worker pool for the task-based simulation engine.
 *
 * The simulator's model-level work is embarrassingly parallel: every
 * (layer, op) pair simulates independently and results are merged in a
 * deterministic order afterwards.  A single process-wide pool
 * (ThreadPool::shared()) serves every ModelRunner and bench binary so
 * a 16-figure sweep never oversubscribes the machine with 16 private
 * pools.
 *
 * Scheduling is a work-stealing-ish claim loop: parallelFor() publishes
 * one job (an index range plus a body) and the caller *and* any idle
 * workers race to claim indices from a shared atomic cursor, so threads
 * that finish cheap items immediately steal the next unclaimed index
 * from slower ones.  Determinism is the caller's contract: bodies write
 * only to their own index's slot, and any order-sensitive reduction
 * happens after parallelFor() returns.
 *
 * Jobs nest: a body may itself call parallelFor(); nested calls are
 * supported and tested (ThreadPool.Nested* in tests/test_common.cc).
 * The nested call publishes a second job to the same pool — idle
 * workers help with it — while the submitting thread claims from its
 * own range until exhausted, so a nested call never deadlocks waiting
 * for executors and never oversubscribes: only threads with nothing
 * else to do pick a nested job up, and the caller itself always
 * drives its range to completion.
 *
 * Sizing: an explicit constructor argument wins, otherwise the
 * TD_THREADS environment variable, otherwise hardware_concurrency.
 */

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace tensordash {

/**
 * Worker pool executing indexed parallel-for jobs.
 *
 * A pool of size N runs at most N bodies concurrently: the thread that
 * calls parallelFor() participates as the N-th executor, so a pool of
 * size 1 spawns no threads at all and runs everything inline.  The
 * pool grows on demand: a parallelFor() with an explicit parallelism
 * larger than the current size spawns the missing workers, so an
 * explicit request (RunConfig::threads, --threads) always wins over
 * the TD_THREADS/hardware default the pool started with.
 */
class ThreadPool
{
  public:
    /**
     * @param threads initial parallelism (caller included); <= 0 picks
     *        defaultThreadCount()
     */
    explicit ThreadPool(int threads = 0);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Current maximum parallelism (workers + the calling thread). */
    int size() const;

    /**
     * Pool size when none is given explicitly: TD_THREADS when set to a
     * positive integer, otherwise std::thread::hardware_concurrency()
     * (at least 1).
     */
    static int defaultThreadCount();

    /**
     * The process-wide pool, created on first use at
     * defaultThreadCount() threads.
     */
    static ThreadPool &shared();

    /**
     * Run body(0) .. body(count - 1), distributing indices over the
     * pool.  Blocks until every index has completed.  The first
     * exception thrown by a body is rethrown here (remaining indices
     * are skipped, in-flight ones finish).
     *
     * Concurrent parallelFor() calls — from different threads or
     * nested inside a running body — coexist: each publishes its own
     * job and idle workers split themselves across the active jobs.
     * The calling thread always participates in its own job's range,
     * so a call never waits on executors it might itself be blocking
     * (nested calls cannot deadlock) and a 1-thread pool runs
     * everything inline in index order.
     *
     * @param count       number of indices
     * @param body        task body; must only touch state owned by its
     *                    index for the run to stay deterministic
     * @param parallelism concurrent executors for this job (<= 0: the
     *                    whole pool; larger than size(): the pool
     *                    grows to match)
     */
    void parallelFor(size_t count, const std::function<void(size_t)> &body,
                     int parallelism = 0);

  private:
    struct Job;

    void workerLoop();

    std::vector<std::thread> workers_; ///< mutations guarded by mu_

    mutable std::mutex mu_; ///< guards workers_, jobs_, stop_
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;

    /** Published jobs with unseated helper capacity, oldest first. */
    std::vector<Job *> jobs_;
    bool stop_ = false;
};

} // namespace tensordash

#endif // TENSORDASH_COMMON_THREAD_POOL_HH_
