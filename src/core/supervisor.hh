/**
 * @file
 * Multi-process shard supervisor: crash isolation, watchdog, retry.
 *
 * The campaign driver forks one worker per shard (re-exec of this
 * binary with `shard --index i --of N ...`), monitors each against a
 * wall-clock deadline — complementing the in-process, sim-time
 * RunWatchdog, which cannot fire once a worker is wedged or dead — and
 * classifies every exit:
 *
 *  - exit 0                      → success
 *  - any other normal exit       → Deterministic: the simulation is
 *    deterministic, so the same inputs fail the same way; retrying
 *    burns the budget for nothing. Not retried.
 *  - killed by a signal          → Transient: crash, OOM kill, chaos
 *    SIGKILL. Retried with exponential backoff.
 *  - wall-clock deadline blown   → Timeout: SIGKILLed, then retried.
 *
 * Because workers persist every finished point durably before dying,
 * a retry only re-runs the remainder of the slice; the rest is
 * salvaged from the result cache. When the retry budget runs out the
 * supervisor degrades to a partial campaign — reported honestly, never
 * silently.
 */

#ifndef JSCALE_CORE_SUPERVISOR_HH
#define JSCALE_CORE_SUPERVISOR_HH

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

namespace jscale::core {

/** Why a worker attempt did not succeed. */
enum class FailureClass : std::uint8_t {
    None,          ///< exited 0
    Deterministic, ///< normal nonzero exit; retry would repeat it
    Transient,     ///< killed by a signal; worth retrying
    Timeout,       ///< blew the wall-clock deadline; killed and retried
};

const char *failureClassName(FailureClass c);

/**
 * Classify a reaped worker. @p timed_out marks workers the supervisor
 * killed itself after the deadline (they also read as signaled).
 */
FailureClass classifyWorkerExit(bool exited, int exit_code, bool signaled,
                                bool timed_out);

/** Retry delay: base << (retry - 1), capped at 30s. retry is 1-based. */
std::uint64_t backoffDelayMs(std::uint64_t base_ms, unsigned retry);

/** One launch of one shard worker, as observed by the supervisor. */
struct WorkerAttempt
{
    unsigned attempt = 0; ///< 1-based
    FailureClass failure = FailureClass::None;
    int exit_code = 0;  ///< valid when the worker exited normally
    int term_signal = 0; ///< valid when the worker was signaled
    std::string log_path;
    long pid = 0; ///< the worker's process id; 0 = fork failed
};

/** Final state of one shard after all attempts. */
struct WorkerOutcome
{
    std::uint32_t shard = 0;
    std::vector<WorkerAttempt> attempts;
    bool succeeded = false;

    const WorkerAttempt *last() const
    {
        return attempts.empty() ? nullptr : &attempts.back();
    }
};

struct SupervisorConfig
{
    unsigned retries = 2;          ///< extra attempts after the first
    std::uint64_t backoff_ms = 250; ///< base of the exponential backoff
    std::uint64_t timeout_s = 0;   ///< wall-clock per attempt; 0 = none
    std::string log_dir;           ///< per-attempt worker logs
    /// Chaos: SIGKILL shard @c chaos_victim after this many durable
    /// record commits (first attempt only). 0 disables.
    std::uint64_t chaos_kill_after = 0;
    std::uint32_t chaos_victim = 0;
};

struct SupervisorReport
{
    std::vector<WorkerOutcome> workers;

    bool allSucceeded() const;
    unsigned totalAttempts() const;
    void print(std::ostream &os) const;
};

/** Builds the argv for one shard worker attempt. */
using ArgvBuilder =
    std::function<std::vector<std::string>(std::uint32_t shard)>;

/**
 * Run @p shard_count workers to completion under the retry policy.
 * Workers run concurrently; retries are scheduled after their backoff
 * delay without blocking other workers. Narration goes to @p log.
 */
SupervisorReport superviseWorkers(std::uint32_t shard_count,
                                  const SupervisorConfig &cfg,
                                  const ArgvBuilder &argv_for,
                                  std::ostream &log);

/**
 * Delete every "<dir>/<name>.tmp.<pid>" file whose pid is one of
 * @p report's attempts: the unpublished records of workers that died
 * mid-write. Call it once superviseWorkers() has reaped them all, so no
 * live writer's temp file is ever touched. Returns the files removed.
 */
std::size_t removeWorkerTemps(const std::string &dir,
                              const SupervisorReport &report);

} // namespace jscale::core

#endif // JSCALE_CORE_SUPERVISOR_HH
