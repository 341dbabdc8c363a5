#ifndef PERFBENCH_SWEEPD_CLIENT_HH_
#define PERFBENCH_SWEEPD_CLIENT_HH_

/**
 * @file
 * The benchmark's side of the sweep service: a td-sweepd child
 * process it owns, and a timed TDSP client.
 *
 * The daemon is fork/exec'd directly (its pid is the daemon's, never a
 * shell's), told to die with the benchmark (PR_SET_PDEATHSIG), and
 * stopped with SIGTERM on every exit path.  stop() then verifies the
 * drain contract: exit code 0, "drained" in the log, the socket file
 * unlinked and no worker left running on the daemon's cache dir.
 */

#include <sys/types.h>

#include <string>

#include "core/tensordash.hh"
#include "service/job_spec.hh"
#include "service/protocol.hh"
#include "trace.hh"

namespace perfbench {

class SweepdProcess
{
  public:
    /** Spawn td-sweepd at @p exe on @p socket and @p cache_dir,
     * logging to @p log_path; throws when fork fails. */
    SweepdProcess(const std::string &exe, const std::string &socket,
                  const std::string &cache_dir,
                  const std::string &log_path, int workers,
                  int worker_threads, int threads);
    ~SweepdProcess();
    SweepdProcess(const SweepdProcess &) = delete;
    SweepdProcess &operator=(const SweepdProcess &) = delete;

    /** Wait until the socket accepts; false when the daemon died or
     * @p timeout_s passed. */
    bool waitReady(double timeout_s);

    const std::string &socket() const { return socket_; }
    const std::string &cacheDir() const { return cache_dir_; }

    /** The daemon's peak resident set (VmHWM), MB; 0 if unreadable. */
    double peakRssMb() const;

    /** SIGTERM, reap, and check the drain contract.  Returns "" when
     * clean, else what was breached.  Idempotent. */
    std::string stop();

    /** Worker processes the daemon reported spawning ([job] shards=),
     * read from its log; valid after stop(). */
    size_t workerSpawns() const;

  private:
    std::string socket_;
    std::string cache_dir_;
    std::string log_path_;
    pid_t pid_ = -1;
};

/** Stop the live daemon, if any, and reap it — for a fatal signal. */
void killLiveDaemons();

/** What one submitted job took, seen from the client. */
struct JobTiming
{
    std::string error; ///< "" on success
    tensordash::SweepResult sweep;
    double total_ms = 0.0;  ///< connect .. JobResult decoded
    double daemon_ms = 0.0; ///< request sent .. JobResult frame read
    double plan_ms = 0.0;   ///< request sent .. first Progress frame
    size_t result_bytes = 0;
    tensordash::service::ProgressMsg first_progress;
};

/** Submit @p job on a fresh connection and wait for its result; with
 * @p tracer, record client-side spans. */
JobTiming submitJob(const std::string &socket,
                    const tensordash::service::JobSpec &job,
                    Tracer *tracer = nullptr);

/** Peak resident set (VmHWM) of process @p pid ("self" when 0), MB. */
double peakRssMb(pid_t pid = 0);

} // namespace perfbench

#endif // PERFBENCH_SWEEPD_CLIENT_HH_
