/**
 * @file
 * The simulated OS CPU scheduler.
 *
 * Per-core FIFO run queues with round-robin time slices, home-core
 * affinity, deterministic idle stealing, context-switch and cross-socket
 * migration costs, and a stop-the-world protocol used by the JVM's
 * safepoint machinery: running threads are truncated at their next
 * (randomized) safepoint-poll boundary, so time-to-safepoint grows with
 * the number of running threads — one of the effects the paper measures.
 */

#ifndef JSCALE_OS_SCHEDULER_HH
#define JSCALE_OS_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "base/random.hh"
#include "base/units.hh"
#include "machine/machine.hh"
#include "os/policy.hh"
#include "os/sched_listener.hh"
#include "os/thread.hh"
#include "sim/simulation.hh"

namespace jscale::os {

/** Tunables for the scheduler. */
struct SchedulerConfig
{
    /** Round-robin time slice. */
    Ticks quantum = 4 * units::MS;
    /** Safepoint-poll latency bounds for truncating running threads. */
    Ticks min_poll_latency = 1 * units::US;
    Ticks max_poll_latency = 25 * units::US;
    /** Whether idle cores steal from loaded run queues. */
    bool stealing = true;
};

/** Aggregate scheduler statistics for one run. */
struct SchedulerStats
{
    std::uint64_t dispatches = 0;
    std::uint64_t context_switches = 0;
    std::uint64_t migrations = 0;
    std::uint64_t steals = 0;
    std::uint64_t preemptions = 0;
    /** Admission-control decisions (concurrency governor). */
    std::uint64_t admission_parks = 0;
    std::uint64_t admission_unparks = 0;
    /** Fault-injection activity (core offline/online, displacements,
     *  forced lock-holder preemptions and stalls). */
    std::uint64_t core_offlines = 0;
    std::uint64_t core_onlines = 0;
    std::uint64_t displaced_threads = 0;
    std::uint64_t forced_preemptions = 0;
    std::uint64_t forced_stalls = 0;
    Ticks busy_ticks = 0;
    Ticks overhead_ticks = 0;
};

/**
 * Deterministic manycore scheduler. Threads are registered once, started,
 * and then driven through the SchedClient burst protocol; all interleaving
 * decisions derive from the simulation's seeded random streams.
 */
class Scheduler
{
  public:
    Scheduler(sim::Simulation &sim, machine::Machine &mach,
              const SchedulerConfig &config = {});
    ~Scheduler();

    Scheduler(const Scheduler &) = delete;
    Scheduler &operator=(const Scheduler &) = delete;

    /** Install a scheduling policy (default: DefaultPolicy). Threads
     *  registered so far are re-announced to the new policy. */
    void setPolicy(std::unique_ptr<SchedPolicy> policy);

    /** Currently installed policy. */
    const SchedPolicy &policy() const { return *policy_; }

    /**
     * Register a thread. Home core defaults to round-robin over the
     * machine's enabled cores. @p group assigns the thread to a
     * scheduling group (tenant): stop-the-world is per-group, and the
     * thread's localId() is its registration index within the group.
     */
    OsThread *registerThread(SchedClient *client, ThreadKind kind,
                             std::optional<machine::CoreId> home = {},
                             std::uint32_t group = 0);

    /** Move a New thread to Ready and try to dispatch it. */
    void start(OsThread *thread);

    /** Wake a Blocked/Sleeping thread. */
    void wake(OsThread *thread);

    /**
     * Arrange for @p thread to sleep until @p when; the client must
     * return BurstOutcome::Blocked from the burst that called this.
     */
    void wakeAt(OsThread *thread, Ticks when);

    /** @name Admission control (concurrency governor)
     * A governor parks mutators at task-fetch boundaries: the client
     * calls noteAdmissionPark() and returns BurstOutcome::Blocked from
     * the same burst, and the thread stays Blocked until
     * unparkAdmitted() re-queues it. Parks and unparks are counted in
     * SchedulerStats so runs expose their admission activity. */
    /** @{ */
    void noteAdmissionPark(OsThread *thread);
    void unparkAdmitted(OsThread *thread);
    /** @} */

    /**
     * Park every thread of @p group (used by the JVM safepoint). The
     * group's running threads are truncated at their next poll point;
     * @p all_parked fires (as an event at the park-completion time) once
     * none of the group's threads is running. Other groups keep
     * dispatching — a tenant's safepoint stops only that tenant.
     */
    void stopTheWorld(std::uint32_t group,
                      std::function<void()> all_parked);

    /** Single-tenant convenience: stop group 0. */
    void stopTheWorld(std::function<void()> all_parked)
    {
        stopTheWorld(0, std::move(all_parked));
    }

    /** Resume dispatching for @p group after its stopTheWorld. */
    void resumeWorld(std::uint32_t group);

    /** Single-tenant convenience: resume group 0. */
    void resumeWorld() { resumeWorld(0); }

    /** Whether every scheduling group is stopped (or stopping) — the
     *  single-tenant reading of "the world is stopped". */
    bool worldStopped() const { return allStopped(); }

    /** Whether @p group is currently stopped (or stopping). */
    bool groupStopped(std::uint32_t group) const
    {
        return group < groups_.size() && groups_[group].stopped;
    }

    /** Threads of @p group currently executing on cores. */
    std::uint32_t groupRunningCount(std::uint32_t group) const
    {
        return group < groups_.size() ? groups_[group].running : 0;
    }

    /** Number of threads currently executing on cores. */
    std::uint32_t runningCount() const { return running_count_; }

    /** Number of registered threads that have finished. */
    std::uint32_t finishedCount() const { return finished_count_; }

    /** All registered threads, in registration order. */
    const std::vector<std::unique_ptr<OsThread>> &threads() const
    {
        return threads_;
    }

    /** Callback invoked whenever a thread finishes. */
    void setThreadFinishedCallback(std::function<void(OsThread *)> cb)
    {
        finished_cb_ = std::move(cb);
    }

    /** @name Fault injection
     * Runtime capacity faults. All are ordinary simulation-driven calls
     * (no host randomness), so faulted runs stay deterministic. */
    /** @{ */
    /**
     * Take @p core offline (online=false) or bring it back. Offlining
     * truncates the core's running burst at its next safepoint poll,
     * migrates the ready queue FIFO-intact to the least-loaded online
     * core, and future wakes redirect away from the core. Returns false
     * if the last online core would go away (the fault is skipped).
     */
    bool setCoreOnline(machine::CoreId core, bool online);

    /**
     * Throttle @p core to @p factor of nominal speed (0 < factor <= 1).
     * Takes effect at the next dispatch on that core; factor 1.0
     * restores nominal behaviour (and the exact unfaulted timing).
     */
    void setCoreSpeed(machine::CoreId core, double factor);

    /**
     * Preempt every running lock-holder (client()->urgent()) as if the
     * host OS descheduled it: the burst is truncated at its next poll
     * and the thread is held off-core for @p hold_for. Returns the
     * number of threads hit.
     */
    std::uint32_t preemptLockHolders(Ticks hold_for);

    /**
     * Forcibly keep @p thread off-core until @p until (mutator stall).
     * Running threads are truncated at the next poll first; blocked or
     * sleeping threads are left alone (already suspended).
     */
    void stallThread(OsThread *thread, Ticks until);

    /** Number of cores currently online. */
    std::uint32_t onlineCores() const { return mach_.enabledCores(); }
    /** @} */

    /** Re-examine all idle cores (used after policy phase rotations).
     *  Returns at once when no run queue holds a thread. */
    void kickAll();

    /** Probe chain; subscribe observation tools before start(). */
    SchedListenerChain &listeners() { return listeners_; }

    /** Threads queued (ready, not running) on @p core's run queue. */
    std::size_t readyQueueDepth(machine::CoreId core) const
    {
        return cores_[core].ready.size();
    }

    /** Threads queued on all run queues (total suspend-wait backlog). */
    std::size_t totalReadyQueued() const;

    /** Run statistics. */
    const SchedulerStats &schedStats() const { return stats_; }

    /**
     * Verify the run-queue index: a core's occupancy bit is set exactly
     * when its ready queue is non-empty, and no offline core holds a
     * queued thread; panics on violation. Used by tests; O(cores).
     */
    void checkInvariants() const;

    const SchedulerConfig &config() const { return config_; }

  private:
    class SliceEndEvent;
    class TimedWakeEvent;

    struct CoreState
    {
        std::deque<OsThread *> ready;
        OsThread *running = nullptr;
        OsThread *last_thread = nullptr;
        Ticks dispatched_at = 0;
        Ticks overhead = 0;
        Ticks planned = 0;
        /** Core speed factor captured at dispatch (burst stretching). */
        double speed = 1.0;
        std::unique_ptr<SliceEndEvent> slice_end;
    };

    /** Per-scheduling-group (tenant) stop-the-world state. */
    struct GroupState
    {
        bool stopped = false;
        bool cb_pending = false;
        std::function<void()> callback;
        /** Threads of this group currently on cores. */
        std::uint32_t running = 0;
        /** Threads registered so far (assigns localId). */
        std::uint32_t registered = 0;
        /** Reusable zero-delay event flattening the parked callback. */
        std::unique_ptr<sim::CallbackEvent> parked_event;
    };

    /** Group record for @p group, created on first use. */
    GroupState &groupState(std::uint32_t group);

    /** True when every known group is stopped (no dispatching at all). */
    bool allStopped() const
    {
        return stopped_groups_ > 0 && stopped_groups_ == groups_.size();
    }

    void maybeDispatch(machine::CoreId core_id);
    void dispatch(machine::CoreId core_id, OsThread *thread, bool stolen);
    void sliceEnd(machine::CoreId core_id);
    /** Take the first eligible thread off @p core_id's ready queue. */
    OsThread *pickFromQueue(machine::CoreId core_id, Ticks now);
    OsThread *stealFor(machine::CoreId thief, Ticks now);
    void enqueueReady(OsThread *thread, machine::CoreId core_id);
    void accountStateExit(OsThread *thread, Ticks now);
    void maybeFireStwCallback(std::uint32_t group);
    void timedWakeFired(TimedWakeEvent *ev);
    /** Schedule a pooled timed wake for @p thread at @p when. */
    void armTimedWake(OsThread *thread, Ticks when);
    /** Truncate @p core's running burst at its next safepoint poll. */
    void truncateAtPoll(machine::CoreId core_id);
    /** @name Occupancy index (queued_) */
    /** @{ */
    void markQueued(machine::CoreId id)
    {
        queued_[id / 64] |= std::uint64_t{1} << (id % 64);
    }
    void clearQueued(machine::CoreId id)
    {
        queued_[id / 64] &= ~(std::uint64_t{1} << (id % 64));
    }
    bool anyQueued() const;
    /** Call @p f(id) for each core with a queued thread, ascending. */
    template <typename F>
    void forEachQueued(F &&f) const;
    /** @} */
    /** Least-loaded online core to absorb work from @p from. */
    machine::CoreId migrationTarget(machine::CoreId from) const;

    /** Commit a state transition and publish it to the probe chain. */
    void setThreadState(OsThread *thread, ThreadState next, Ticks now);

    sim::Simulation &sim_;
    machine::Machine &mach_;
    SchedulerConfig config_;
    std::unique_ptr<SchedPolicy> policy_;
    Rng rng_;

    std::vector<std::unique_ptr<OsThread>> threads_;
    std::vector<CoreState> cores_;
    /**
     * Occupancy index of the run queues: bit (id % 64) of word id / 64
     * is set exactly when cores_[id].ready is non-empty. Every queue
     * change updates it, so stealing walks only the loaded queues and
     * a kick with nothing queued costs one word test per 64 cores.
     */
    std::vector<std::uint64_t> queued_;
    std::uint32_t next_home_rr_ = 0;
    std::uint32_t running_count_ = 0;
    std::uint32_t finished_count_ = 0;

    /** Per-group stop-the-world records, indexed by group id. */
    std::vector<GroupState> groups_;
    /** Number of groups currently stopped (fast all-stopped check). */
    std::size_t stopped_groups_ = 0;
    std::function<void(OsThread *)> finished_cb_;
    SchedListenerChain listeners_;

    /**
     * Pooled timed-wake events: wakeAt() recycles fired events instead
     * of heap-allocating a closure per sleep. Several may be pending at
     * once (a thread woken early leaves its stale event in flight), so
     * this is a free list, not a per-thread slot.
     */
    std::vector<std::unique_ptr<TimedWakeEvent>> wake_events_;
    std::vector<TimedWakeEvent *> wake_free_;

    SchedulerStats stats_;
};

} // namespace jscale::os

#endif // JSCALE_OS_SCHEDULER_HH
