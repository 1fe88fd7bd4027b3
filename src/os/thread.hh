/**
 * @file
 * Kernel-level thread abstraction for the simulated OS scheduler.
 *
 * A thread is driven through a two-phase protocol: the scheduler asks the
 * client to *plan* a CPU burst (planBurst), runs the core for up to that
 * long, then tells the client how much time actually elapsed
 * (finishBurst) — which may be less than planned when the burst was
 * truncated by preemption or a stop-the-world request. The client commits
 * logical progress only in finishBurst, so truncation is always safe.
 */

#ifndef JSCALE_OS_THREAD_HH
#define JSCALE_OS_THREAD_HH

#include <cstdint>
#include <string>

#include "base/units.hh"
#include "machine/machine.hh"

namespace jscale::os {

/** OS-level thread id. */
using ThreadId = std::uint32_t;

/** What a thread does after completing (or being truncated in) a burst. */
enum class BurstOutcome
{
    /** Still has runnable work; wants the CPU again. */
    Ready,
    /** Parked on a synchronization object; will be woken explicitly. */
    Blocked,
    /** No more work, ever. */
    Finished,
};

/** Scheduling classes; stop-the-world parks mutators and helpers alike. */
enum class ThreadKind { Mutator, Helper, Daemon };

/** Observable thread states. */
enum class ThreadState
{
    New,
    Ready,
    Running,
    Blocked,
    Sleeping,
    Finished,
};

/** Render a ThreadState for diagnostics. */
const char *threadStateName(ThreadState s);

/**
 * Client interface implemented by anything the scheduler can run
 * (JVM mutator threads, VM helper threads, ...).
 */
class SchedClient
{
  public:
    virtual ~SchedClient() = default;

    /**
     * Plan the next CPU burst starting at @p now. Must return a value in
     * (0, limit]. Called only when the thread is about to run.
     */
    virtual Ticks planBurst(Ticks now, Ticks limit) = 0;

    /**
     * Commit @p elapsed ticks of progress (0 <= elapsed <= planned) and
     * report what the thread does next. @p elapsed < planned means the
     * burst was truncated; the client must resume the same logical step
     * on its next burst.
     */
    virtual BurstOutcome finishBurst(Ticks now, Ticks elapsed) = 0;

    /** Diagnostic name. */
    virtual std::string clientName() const { return "client"; }

    /**
     * Whether the thread must run regardless of policy gating (e.g. it
     * holds a monitor others may be queued on). Consulted by the
     * scheduler as an eligibility override so priority-gating policies
     * cannot convoy lock chains.
     */
    virtual bool urgent() const { return false; }
};

/**
 * Scheduler-owned per-thread record: identity, state and time accounting.
 * The accounting feeds the paper's workload-distribution and
 * suspend-wait analyses.
 */
class OsThread
{
  public:
    OsThread(ThreadId id, SchedClient *client, ThreadKind kind,
             machine::CoreId home_core)
        : id_(id), client_(client), kind_(kind), home_core_(home_core)
    {}

    ThreadId id() const { return id_; }
    SchedClient *client() const { return client_; }
    ThreadKind kind() const { return kind_; }
    ThreadState state() const { return state_; }
    machine::CoreId homeCore() const { return home_core_; }
    std::string name() const { return client_->clientName(); }

    /** Scheduling group (tenant). Stop-the-world is per-group: group g's
     *  safepoint parks only group g's threads. Default group is 0. */
    std::uint32_t group() const { return group_; }

    /** Index of this thread within its group, in registration order.
     *  Lets per-VM observers map an OsThread back to their own
     *  mutator/helper tables when several VMs share one scheduler. */
    std::uint32_t localId() const { return local_id_; }

    /** Total time actually executing on a core. */
    Ticks cpuTime() const { return cpu_time_; }

    /** Total time runnable but waiting for a core ("suspend wait"). */
    Ticks readyTime() const { return ready_time_; }

    /** Total time parked on synchronization objects. */
    Ticks blockedTime() const { return blocked_time_; }

    /** Total time in timed sleeps. */
    Ticks sleepTime() const { return sleep_time_; }

    /** Number of times this thread was dispatched onto a core. */
    std::uint64_t dispatches() const { return dispatches_; }

    /** Number of cross-socket migrations. */
    std::uint64_t migrations() const { return migrations_; }

  private:
    friend class Scheduler;

    ThreadId id_;
    SchedClient *client_;
    ThreadKind kind_;
    std::uint32_t group_ = 0;
    std::uint32_t local_id_ = 0;
    machine::CoreId home_core_;
    machine::CoreId last_core_ = 0;
    bool ever_ran_ = false;
    /** Set by Scheduler::wakeAt; turns the next Blocked outcome into a
     *  timed sleep for accounting purposes. */
    bool pending_sleep_ = false;
    /** Fault injection: when > 0 the thread is held off-core until this
     *  time the next time a burst of its ends Ready (forced stall /
     *  lock-holder preemption). Consumed by the scheduler. */
    Ticks forced_sleep_until_ = 0;
    ThreadState state_ = ThreadState::New;

    /** Timestamp of the last state-entry, for accounting. */
    Ticks state_since_ = 0;

    Ticks cpu_time_ = 0;
    Ticks ready_time_ = 0;
    Ticks blocked_time_ = 0;
    Ticks sleep_time_ = 0;
    std::uint64_t dispatches_ = 0;
    std::uint64_t migrations_ = 0;
};

} // namespace jscale::os

#endif // JSCALE_OS_THREAD_HH
