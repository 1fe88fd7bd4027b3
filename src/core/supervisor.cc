#include "core/supervisor.hh"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <ostream>
#include <set>
#include <thread>

#include "base/chaos.hh"
#include "base/logging.hh"

namespace jscale::core {

namespace {

using Clock = std::chrono::steady_clock;

struct LiveWorker
{
    pid_t pid = -1;
    std::uint32_t shard = 0;
    unsigned attempt = 0;
    Clock::time_point deadline{};
    bool has_deadline = false;
    bool killed_for_timeout = false;
    std::string log_path;
};

struct PendingLaunch
{
    std::uint32_t shard = 0;
    unsigned attempt = 0;
    Clock::time_point launch_at{};
};

std::string
attemptLogPath(const SupervisorConfig &cfg, std::uint32_t shard,
               unsigned attempt)
{
    if (cfg.log_dir.empty())
        return {};
    return cfg.log_dir + "/shard-" + std::to_string(shard) + ".attempt-" +
           std::to_string(attempt) + ".log";
}

/// Fork and exec one worker attempt. Returns -1 on fork failure.
pid_t
launchWorker(const SupervisorConfig &cfg,
             const std::vector<std::string> &argv, std::uint32_t shard,
             unsigned attempt, const std::string &log_path)
{
    const pid_t pid = ::fork();
    if (pid != 0)
        return pid;

    // Child. Only async-signal-safe work between fork and exec.
    if (!log_path.empty()) {
        const int fd = ::open(log_path.c_str(),
                              O_WRONLY | O_CREAT | O_TRUNC, 0644);
        if (fd >= 0) {
            ::dup2(fd, STDOUT_FILENO);
            ::dup2(fd, STDERR_FILENO);
            if (fd > STDERR_FILENO)
                ::close(fd);
        }
    }
    if (cfg.chaos_kill_after > 0 && shard == cfg.chaos_victim &&
        attempt == 1) {
        ::setenv(kChaosKillEnv,
                 std::to_string(cfg.chaos_kill_after).c_str(), 1);
    } else {
        ::unsetenv(kChaosKillEnv);
    }

    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &a : argv)
        cargv.push_back(const_cast<char *>(a.c_str()));
    cargv.push_back(nullptr);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
}

} // namespace

const char *
failureClassName(FailureClass c)
{
    switch (c) {
      case FailureClass::None:
        return "none";
      case FailureClass::Deterministic:
        return "deterministic";
      case FailureClass::Transient:
        return "transient";
      case FailureClass::Timeout:
        return "timeout";
    }
    return "unknown";
}

FailureClass
classifyWorkerExit(bool exited, int exit_code, bool signaled,
                   bool timed_out)
{
    if (timed_out)
        return FailureClass::Timeout;
    if (signaled)
        return FailureClass::Transient;
    if (exited && exit_code == 0)
        return FailureClass::None;
    // Normal nonzero exit: the sim is deterministic, so this repeats.
    return FailureClass::Deterministic;
}

std::uint64_t
backoffDelayMs(std::uint64_t base_ms, unsigned retry)
{
    constexpr std::uint64_t kCapMs = 30'000;
    if (retry == 0 || base_ms == 0)
        return 0;
    const unsigned shift = std::min(retry - 1, 20u);
    // Saturate first: a large base must not shift past 64 bits.
    return std::min(kCapMs, std::min(base_ms, kCapMs) << shift);
}

bool
SupervisorReport::allSucceeded() const
{
    return std::all_of(workers.begin(), workers.end(),
                       [](const WorkerOutcome &w) { return w.succeeded; });
}

unsigned
SupervisorReport::totalAttempts() const
{
    unsigned n = 0;
    for (const WorkerOutcome &w : workers)
        n += static_cast<unsigned>(w.attempts.size());
    return n;
}

void
SupervisorReport::print(std::ostream &os) const
{
    os << "campaign supervisor: " << workers.size() << " shard(s), "
       << totalAttempts() << " attempt(s)\n";
    for (const WorkerOutcome &w : workers) {
        os << "  shard " << w.shard << ": "
           << (w.succeeded ? "ok" : "FAILED") << " after "
           << w.attempts.size() << " attempt(s)";
        for (const WorkerAttempt &a : w.attempts) {
            if (a.failure == FailureClass::None)
                continue;
            os << "; attempt " << a.attempt << " "
               << failureClassName(a.failure);
            if (a.failure == FailureClass::Deterministic)
                os << " (exit " << a.exit_code << ")";
            else if (a.failure == FailureClass::Transient)
                os << " (signal " << a.term_signal << ")";
        }
        os << '\n';
    }
}

SupervisorReport
superviseWorkers(std::uint32_t shard_count, const SupervisorConfig &cfg,
                 const ArgvBuilder &argv_for, std::ostream &log)
{
    SupervisorReport report;
    report.workers.resize(shard_count);
    for (std::uint32_t i = 0; i < shard_count; ++i)
        report.workers[i].shard = i;

    if (!cfg.log_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg.log_dir, ec);
    }

    std::vector<LiveWorker> live;
    std::vector<PendingLaunch> pending;
    for (std::uint32_t i = 0; i < shard_count; ++i)
        pending.push_back({i, 1, Clock::now()});

    auto start = [&](const PendingLaunch &p) {
        const std::string log_path =
            attemptLogPath(cfg, p.shard, p.attempt);
        const pid_t pid = launchWorker(cfg, argv_for(p.shard), p.shard,
                                       p.attempt, log_path);
        if (pid < 0) {
            // fork failed; treat as a transient attempt and retry via
            // the normal path so the budget still bounds us.
            WorkerAttempt a;
            a.attempt = p.attempt;
            a.failure = FailureClass::Transient;
            a.term_signal = 0;
            a.log_path = log_path;
            report.workers[p.shard].attempts.push_back(a);
            if (p.attempt <= cfg.retries) {
                pending.push_back(
                    {p.shard, p.attempt + 1,
                     Clock::now() + std::chrono::milliseconds(
                                        backoffDelayMs(cfg.backoff_ms,
                                                       p.attempt))});
            }
            warn("fork failed for shard ", p.shard, ": ",
                 std::strerror(errno));
            return;
        }
        LiveWorker w;
        w.pid = pid;
        w.shard = p.shard;
        w.attempt = p.attempt;
        w.log_path = log_path;
        if (cfg.timeout_s > 0) {
            w.deadline =
                Clock::now() + std::chrono::seconds(cfg.timeout_s);
            w.has_deadline = true;
        }
        live.push_back(w);
        log << "supervisor: shard " << p.shard << " attempt " << p.attempt
            << " started (pid " << pid << ")\n";
    };

    auto reap = [&](LiveWorker &w, int status) {
        WorkerAttempt a;
        a.attempt = w.attempt;
        a.log_path = w.log_path;
        a.pid = w.pid;
        const bool exited = WIFEXITED(status);
        const bool signaled = WIFSIGNALED(status);
        a.exit_code = exited ? WEXITSTATUS(status) : 0;
        a.term_signal = signaled ? WTERMSIG(status) : 0;
        a.failure = classifyWorkerExit(exited, a.exit_code, signaled,
                                       w.killed_for_timeout);
        WorkerOutcome &outcome = report.workers[w.shard];
        outcome.attempts.push_back(a);

        switch (a.failure) {
          case FailureClass::None:
            outcome.succeeded = true;
            log << "supervisor: shard " << w.shard << " attempt "
                << w.attempt << " succeeded\n";
            break;
          case FailureClass::Deterministic:
            log << "supervisor: shard " << w.shard << " attempt "
                << w.attempt << " exited " << a.exit_code
                << " (deterministic failure; not retrying)\n";
            break;
          case FailureClass::Transient:
          case FailureClass::Timeout: {
            const char *what = a.failure == FailureClass::Timeout
                                   ? "timed out"
                                   : "crashed";
            if (w.attempt <= cfg.retries) {
                const std::uint64_t delay =
                    backoffDelayMs(cfg.backoff_ms, w.attempt);
                log << "supervisor: shard " << w.shard << " attempt "
                    << w.attempt << " " << what << "; retrying in "
                    << delay << " ms\n";
                pending.push_back(
                    {w.shard, w.attempt + 1,
                     Clock::now() + std::chrono::milliseconds(delay)});
            } else {
                log << "supervisor: shard " << w.shard << " attempt "
                    << w.attempt << " " << what
                    << "; retry budget exhausted\n";
            }
            break;
          }
        }
    };

    while (!live.empty() || !pending.empty()) {
        // Launch everything whose backoff has elapsed.
        const Clock::time_point now = Clock::now();
        for (std::size_t i = 0; i < pending.size();) {
            if (pending[i].launch_at <= now) {
                const PendingLaunch p = pending[i];
                pending.erase(pending.begin() +
                              static_cast<std::ptrdiff_t>(i));
                start(p);
            } else {
                ++i;
            }
        }

        // Enforce wall-clock deadlines.
        for (LiveWorker &w : live) {
            if (w.has_deadline && !w.killed_for_timeout &&
                Clock::now() >= w.deadline) {
                log << "supervisor: shard " << w.shard << " attempt "
                    << w.attempt << " exceeded " << cfg.timeout_s
                    << " s wall clock; killing pid " << w.pid << "\n";
                w.killed_for_timeout = true;
                ::kill(w.pid, SIGKILL);
            }
        }

        // Reap any finished workers without blocking.
        bool reaped = false;
        int status = 0;
        pid_t pid;
        while ((pid = ::waitpid(-1, &status, WNOHANG)) > 0) {
            auto it = std::find_if(
                live.begin(), live.end(),
                [pid](const LiveWorker &w) { return w.pid == pid; });
            if (it == live.end())
                continue; // not ours (shouldn't happen)
            reap(*it, status);
            live.erase(it);
            reaped = true;
        }

        if (!reaped && (!live.empty() || !pending.empty()))
            std::this_thread::sleep_for(std::chrono::milliseconds(15));
    }

    return report;
}

std::size_t
removeWorkerTemps(const std::string &dir, const SupervisorReport &report)
{
    std::set<std::string> suffixes;
    for (const WorkerOutcome &w : report.workers) {
        for (const WorkerAttempt &a : w.attempts) {
            if (a.pid > 0)
                suffixes.insert(".tmp." + std::to_string(a.pid));
        }
    }
    std::size_t removed = 0;
    std::error_code ec;
    for (std::filesystem::directory_iterator it(dir, ec), end;
         !ec && it != end; it.increment(ec)) {
        const std::string name = it->path().filename().string();
        const auto tmp = name.rfind(".tmp.");
        std::error_code gone;
        if (tmp != std::string::npos && suffixes.count(name.substr(tmp)) &&
            std::filesystem::remove(it->path(), gone))
            ++removed;
    }
    return removed;
}

} // namespace jscale::core
