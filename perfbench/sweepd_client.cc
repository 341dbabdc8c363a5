#include "sweepd_client.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace perfbench {

using namespace tensordash;
using Clock = std::chrono::steady_clock;

namespace {

/** Pid of the running daemon (the benchmark runs one at a time), for
 * killLiveDaemons() in signal context. */
std::atomic<pid_t> g_live{0};

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/** Pids of live processes whose command line contains @p needle. */
std::vector<pid_t>
processesMentioning(const std::string &needle)
{
    std::vector<pid_t> out;
    std::error_code ec;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc", ec)) {
        const std::string name = entry.path().filename().string();
        if (name.empty() ||
            name.find_first_not_of("0123456789") != std::string::npos)
            continue;
        std::string cmdline = readFile(entry.path().string() +
                                       "/cmdline");
        for (char &c : cmdline)
            if (c == '\0')
                c = ' ';
        if (cmdline.find(needle) != std::string::npos)
            out.push_back((pid_t)std::stol(name));
    }
    return out;
}

} // namespace

double
peakRssMb(pid_t pid)
{
    const std::string path = pid > 0
        ? "/proc/" + std::to_string(pid) + "/status"
        : std::string("/proc/self/status");
    std::istringstream in(readFile(path));
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    return 0.0;
}

SweepdProcess::SweepdProcess(const std::string &exe,
                             const std::string &socket,
                             const std::string &cache_dir,
                             const std::string &log_path, int workers,
                             int worker_threads, int threads)
    : socket_(socket), cache_dir_(cache_dir), log_path_(log_path)
{
    std::vector<std::string> args = {
        exe,         "--socket",         socket,
        "--cache-dir", cache_dir,        "--workers",
        std::to_string(workers),         "--worker-threads",
        std::to_string(worker_threads),  "--threads",
        std::to_string(threads)};
    std::vector<char *> argv;
    for (std::string &a : args)
        argv.push_back(a.data());
    argv.push_back(nullptr);
    const pid_t parent = ::getpid();
    pid_t pid = ::fork();
    if (pid < 0)
        throw std::runtime_error("cannot fork td-sweepd");
    if (pid == 0) {
        // Die with the benchmark even if it is killed outright.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(127);
        int fd = ::open(log_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            ::close(fd);
        }
        ::execv(argv[0], argv.data());
        ::_exit(127);
    }
    pid_ = pid;
    g_live = pid_;
}

SweepdProcess::~SweepdProcess() { stop(); }

bool
SweepdProcess::waitReady(double timeout_s)
{
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(timeout_s);
    while (Clock::now() < deadline) {
        int status = 0;
        if (pid_ <= 0 || ::waitpid(pid_, &status, WNOHANG) == pid_) {
            g_live = 0;
            pid_ = -1;
            return false;
        }
        struct stat st;
        if (::stat(socket_.c_str(), &st) == 0 && S_ISSOCK(st.st_mode)) {
            int fd = service::connectUnix(socket_);
            if (fd >= 0) {
                // An empty connection: the daemon answers it with an
                // Error frame and moves on.
                ::close(fd);
                return true;
            }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;
}

double
SweepdProcess::peakRssMb() const
{
    return pid_ > 0 ? perfbench::peakRssMb(pid_) : 0.0;
}

std::string
SweepdProcess::stop()
{
    if (pid_ <= 0)
        return "";
    const pid_t pid = pid_;
    pid_ = -1;
    std::string breach;
    ::kill(pid, SIGTERM);
    int status = 0;
    bool reaped = false;
    const auto deadline = Clock::now() + std::chrono::seconds(30);
    while (Clock::now() < deadline) {
        pid_t r = ::waitpid(pid, &status, WNOHANG);
        if (r == pid || (r < 0 && errno != EINTR)) {
            reaped = r == pid;
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!reaped) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, &status, 0);
        breach += "daemon ignored SIGTERM; ";
    }
    g_live = 0;
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        breach += "daemon exit status " + std::to_string(status) + "; ";
    if (readFile(log_path_).find("drained") == std::string::npos)
        breach += "no drain in the daemon log; ";
    struct stat st;
    if (::stat(socket_.c_str(), &st) == 0)
        breach += "socket file left behind; ";
    std::vector<pid_t> strays = processesMentioning(cache_dir_);
    for (pid_t p : strays) {
        ::kill(p, SIGKILL);
        ::waitpid(p, nullptr, 0);
    }
    if (!strays.empty())
        breach += std::to_string(strays.size()) + " stray worker(s); ";
    return breach;
}

size_t
SweepdProcess::workerSpawns() const
{
    std::istringstream in(readFile(log_path_));
    std::string line;
    size_t spawns = 0;
    while (std::getline(in, line)) {
        size_t at = line.find("[job] ");
        size_t sh = line.find(" shards=");
        if (at != std::string::npos && sh != std::string::npos)
            spawns += std::stoul(line.substr(sh + 8));
    }
    return spawns;
}

void
killLiveDaemons()
{
    pid_t pid = g_live.exchange(0);
    if (pid > 0) {
        ::kill(pid, SIGTERM);
        ::waitpid(pid, nullptr, 0);
    }
}

JobTiming
submitJob(const std::string &socket, const service::JobSpec &job,
          Tracer *tracer)
{
    JobTiming out;
    MaybeSpan job_span(tracer, "service.job");
    const auto t0 = Clock::now();
    MaybeSpan request(tracer, "service.request");
    int fd = service::connectUnix(socket);
    if (fd < 0) {
        out.error = "cannot connect to td-sweepd";
        return out;
    }
    ByteWriter w;
    job.serialize(w);
    if (!service::sendFrame(fd, service::MsgType::JobRequest,
                            w.data())) {
        ::close(fd);
        out.error = "request write failed";
        return out;
    }
    request.end();
    const auto sent = Clock::now();
    MaybeSpan wait(tracer, "service.plan");
    bool have_progress = false;
    service::Frame frame;
    while (service::recvFrame(fd, &frame)) {
        if (frame.type == service::MsgType::Progress) {
            if (!have_progress) {
                have_progress = true;
                out.plan_ms = msBetween(sent, Clock::now());
                ByteReader r(frame.payload);
                out.first_progress.deserialize(r);
                wait.end();
                if (tracer)
                    wait.scope.emplace(*tracer, "service.serve");
            }
            continue;
        }
        wait.end();
        if (frame.type == service::MsgType::JobResult) {
            out.daemon_ms = msBetween(sent, Clock::now());
            out.result_bytes = frame.payload.size();
            MaybeSpan decode(tracer, "service.decode");
            if (!SweepResult::deserialize(frame.payload, &out.sweep))
                out.error = "corrupt JobResult payload";
        } else if (frame.type == service::MsgType::Error) {
            out.error = "daemon error: " +
                        service::parseErrorPayload(frame.payload);
        } else {
            out.error = "unexpected frame type";
        }
        break;
    }
    ::close(fd);
    if (out.error.empty() && out.result_bytes == 0)
        out.error = "connection closed before a result";
    out.total_ms = msBetween(t0, Clock::now());
    return out;
}

} // namespace perfbench
