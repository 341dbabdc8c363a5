#ifndef PERFBENCH_TRACE_HH_
#define PERFBENCH_TRACE_HH_

/**
 * @file
 * In-memory span recorder of the benchmark's traced runs.
 *
 * Spans are recorded from the benchmark's own files around calls into
 * each layer of the simulator (none are recorded inside the library),
 * kept in memory, and written out as Chrome trace-event JSON (openable
 * in Perfetto or chrome://tracing) when the run ends.  A Tracer is
 * single-threaded: the traced replay runs serially.
 */

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Span
{
    const char *name = "";
    double start_us = 0.0;
    double end_us = 0.0;
    int64_t parent = -1; ///< index of the enclosing span, -1 at top
    int64_t cell = -1;   ///< global op-cell id, -1 when not per cell

    double seconds() const { return (end_us - start_us) * 1e-6; }
};

class Tracer
{
  public:
    Tracer() : origin_(std::chrono::steady_clock::now()) {}

    /** RAII span: opened by Tracer::scope, closed on destruction. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, int64_t cell = -1);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer &tracer_;
        size_t index_;
        int64_t saved_parent_;
    };

    Scope scope(const char *name, int64_t cell = -1)
    {
        return Scope(*this, name, cell);
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Summed duration (s) of every span named @p name. */
    double total(const std::string &name) const;

    /** Number of spans named @p name. */
    size_t count(const std::string &name) const;

    /** Write every span as Chrome trace-event JSON; false on I/O
     * failure. */
    bool writeChrome(const std::string &path) const;

  private:
    double nowUs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    int64_t open_ = -1;
};

/** A span when @p t is non-null, nothing otherwise (code shared by
 * traced and untraced runs). */
struct MaybeSpan
{
    std::optional<Tracer::Scope> scope;

    MaybeSpan(Tracer *t, const char *name, int64_t cell = -1)
    {
        if (t)
            scope.emplace(*t, name, cell);
    }

    /** Close the span early. */
    void end() { scope.reset(); }
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH_
