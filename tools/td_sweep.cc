/**
 * @file
 * td-sweep: submit a sweep job to td-sweepd and render the result.
 *
 *   td-sweep --socket PATH [--csv FILE] [--quiet] FIGURE
 *
 * FIGURE is any figure of the registry (core/figures.hh) whose grid a
 * JobSpec can express.  The client serializes that JobSpec, sends a
 * single JobRequest frame, tails the daemon's Progress frames to
 * stderr, and renders the final SweepResult with the figure's own
 * renderer — the table (and --csv output) is byte-identical to
 * `td-fig FIGURE`'s, so the same goldens cover both paths.
 *
 * After the table it prints one machine-parseable counter line:
 *
 *   [result] cells=N hits=N simulated=N estimated=N wall_ms=N
 *
 * A warm repeat submission shows simulated=0: every cell was served
 * from the daemon's cache without spawning a worker.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include <unistd.h>

#include "core/tensordash.hh"
#include "service/protocol.hh"

using namespace tensordash;
using namespace tensordash::service;

namespace {

int
usage(FILE *out)
{
    std::fprintf(
        out,
        "usage: td-sweep --socket PATH [--csv FILE] [--quiet] FIGURE\n"
        "  --socket PATH  td-sweepd's Unix-domain socket\n"
        "  --csv FILE     also write the rendered table as CSV\n"
        "  --quiet        suppress the progress tail on stderr\n"
        "figures (the same tables as td-fig FIGURE; TD_FAST=1 selects\n"
        "the reduced sampling budget):\n");
    for (const FigureDef &f : figureRegistry())
        if (f.grid().job)
            std::fprintf(out, "  %-8s %s\n", f.name, f.title);
    return out == stdout ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && (std::strcmp(argv[1], "--help") == 0 ||
                      std::strcmp(argv[1], "-h") == 0))
        return usage(stdout);

    std::string socket_path, csv_path, figure;
    bool quiet = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (++i >= argc) {
                std::fprintf(stderr,
                             "td-sweep: missing value for %s\n",
                             arg.c_str());
                std::exit(1);
            }
            return argv[i];
        };
        if (arg == "--socket")
            socket_path = value();
        else if (arg == "--csv")
            csv_path = value();
        else if (arg == "--quiet")
            quiet = true;
        else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "td-sweep: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        } else if (figure.empty()) {
            figure = arg;
        } else {
            return usage(stderr);
        }
    }
    if (socket_path.empty() || figure.empty())
        return usage(stderr);
    const FigureDef *fig = findFigure(figure);
    const std::optional<JobSpec> job =
        fig ? fig->grid().job : std::nullopt;
    if (!job) {
        std::fprintf(stderr,
                     "td-sweep: '%s' is not a figure td-sweepd can "
                     "serve\n",
                     figure.c_str());
        return usage(stderr);
    }

    std::string reason = job->validate();
    if (!reason.empty()) {
        std::fprintf(stderr, "td-sweep: invalid job: %s\n",
                     reason.c_str());
        return 1;
    }

    const auto start = std::chrono::steady_clock::now();
    int fd = connectUnix(socket_path);
    if (fd < 0) {
        std::fprintf(stderr,
                     "td-sweep: cannot connect to '%s' (is td-sweepd "
                     "running?)\n",
                     socket_path.c_str());
        return 1;
    }
    ByteWriter w;
    job->serialize(w);
    if (!sendFrame(fd, MsgType::JobRequest, w.data())) {
        std::fprintf(stderr, "td-sweep: request write failed\n");
        ::close(fd);
        return 1;
    }

    // Tail frames until the terminal JobResult or Error.
    SweepResult sweep;
    bool have_result = false;
    Frame frame;
    while (recvFrame(fd, &frame)) {
        if (frame.type == MsgType::Progress) {
            ProgressMsg p;
            ByteReader r(frame.payload);
            if (p.deserialize(r) && !quiet)
                std::fprintf(stderr,
                             "[progress] tasks %llu/%llu  warm %llu/"
                             "%llu cells  shards %u/%u  simulated "
                             "%llu\n",
                             (unsigned long long)p.done_tasks,
                             (unsigned long long)p.total_tasks,
                             (unsigned long long)p.warm_cells,
                             (unsigned long long)p.total_cells,
                             p.shards_done, p.shards_total,
                             (unsigned long long)p.simulated);
            continue;
        }
        if (frame.type == MsgType::JobResult) {
            have_result = SweepResult::deserialize(frame.payload,
                                                   &sweep);
            if (!have_result)
                std::fprintf(stderr,
                             "td-sweep: corrupt JobResult payload\n");
            break;
        }
        if (frame.type == MsgType::Error) {
            std::fprintf(stderr, "td-sweep: daemon error: %s\n",
                         parseErrorPayload(frame.payload).c_str());
            ::close(fd);
            return 1;
        }
        std::fprintf(stderr, "td-sweep: unexpected frame type %u\n",
                     (unsigned)frame.type);
        break;
    }
    ::close(fd);
    if (!have_result) {
        std::fprintf(stderr,
                     "td-sweep: connection closed before a result\n");
        return 1;
    }
    const auto wall = std::chrono::duration_cast<
        std::chrono::milliseconds>(std::chrono::steady_clock::now() -
                                   start);

    Table t = fig->render(sweep);
    t.print();
    if (!csv_path.empty() && !t.writeCsv(csv_path)) {
        std::fprintf(stderr, "td-sweep: cannot write '%s'\n",
                     csv_path.c_str());
        return 1;
    }
    std::printf("[result] cells=%zu hits=%zu simulated=%zu "
                "estimated=%zu wall_ms=%lld\n",
                sweep.cellCount(), sweep.cache_hits, sweep.simulated,
                sweep.estimated, (long long)wall.count());
    return 0;
}
