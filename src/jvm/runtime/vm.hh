/**
 * @file
 * JavaVm: the managed-runtime facade.
 *
 * Wires the simulated machine, OS scheduler, generational heap, monitor
 * table and thread models into one runnable VM, mirroring the
 * OpenJDK 1.7 / HotSpot configuration of the paper (stop-the-world
 * throughput-oriented parallel collector, GC workers = enabled cores).
 * One JavaVm executes exactly one application run and reports a
 * RunResult splitting wall time into mutator and GC components — the
 * paper's two top-level performance factors.
 */

#ifndef JSCALE_JVM_RUNTIME_VM_HH
#define JSCALE_JVM_RUNTIME_VM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "jvm/gc/adaptive.hh"
#include "jvm/gc/concurrent.hh"
#include "jvm/gc/cost_model.hh"
#include "jvm/gc/gc_types.hh"
#include "jvm/heap/heap.hh"
#include "jvm/locks/monitor.hh"
#include "jvm/runtime/admission.hh"
#include "jvm/runtime/app.hh"
#include "jvm/runtime/listener.hh"
#include "jvm/runtime/vm_config.hh"
#include "jvm/threads/helper.hh"
#include "jvm/threads/mutator.hh"
#include "machine/machine.hh"
#include "os/scheduler.hh"
#include "sim/simulation.hh"
#include "stats/stats.hh"

namespace jscale::jvm {

/** Aggregate GC statistics for one run. */
struct GcRunStats
{
    std::uint64_t minor_count = 0;
    std::uint64_t full_count = 0;
    /** Thread-local compartment collections (compartmentalized mode). */
    std::uint64_t local_count = 0;
    /** Concurrent old-gen marking cycles started / failed / remarked. */
    std::uint64_t concurrent_cycles = 0;
    std::uint64_t concurrent_failures = 0;
    std::uint64_t remark_count = 0;
    /** Total single-thread pause of local collections (not STW). */
    Ticks local_pause = 0;
    /** Total stop-the-world time (the paper's "GC time"). */
    Ticks total_pause = 0;
    /** Total time-to-safepoint component. */
    Ticks total_ttsp = 0;
    Bytes copied_bytes = 0;
    Bytes promoted_bytes = 0;
    Bytes reclaimed_bytes = 0;
    /** Per-pause distributions. */
    stats::SampleStats minor_pauses;
    stats::SampleStats full_pauses;
    /** Log-bucket histogram of all STW pauses (for percentiles). */
    stats::LogHistogram pause_hist;
    /** Fraction of scanned nursery bytes that survived, per minor GC. */
    stats::SampleStats nursery_survival;
    /** Adaptive-sizing decisions (when enabled). */
    AdaptiveSizeStats adaptive;
    /** Successful young-generation resizes. */
    std::uint64_t young_resizes = 0;
    /** Every completed collection, in order. */
    std::vector<GcEvent> events;
};

/** Per-thread summary row for workload-distribution analyses. */
struct ThreadSummary
{
    std::string name;
    os::ThreadKind kind = os::ThreadKind::Mutator;
    Ticks cpu_time = 0;
    Ticks ready_time = 0;
    Ticks blocked_time = 0;
    Ticks sleep_time = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t migrations = 0;
    std::uint64_t tasks_completed = 0;
    std::uint64_t allocations = 0;
    Bytes bytes_allocated = 0;
};

/** Aggregate lock counters (Fig. 1a / 1b series). */
struct LockTotals
{
    std::uint64_t acquisitions = 0;
    std::uint64_t contentions = 0;
    Ticks block_time = 0;
    std::uint64_t monitors = 0;
    /** HotSpot lock-state breakdown (biased/thin/fat + transitions). */
    std::uint64_t biased_acquisitions = 0;
    std::uint64_t thin_acquisitions = 0;
    std::uint64_t fat_acquisitions = 0;
    std::uint64_t bias_revocations = 0;
    std::uint64_t inflations = 0;
    std::uint64_t waits = 0;
    std::uint64_t notifies = 0;
    /** @name Admission-policy behaviour (locks/policy.hh) */
    /** @{ */
    /** Contended handoffs (direct grants at release). */
    std::uint64_t handoffs = 0;
    /** Handoffs that bypassed an older queued waiter. */
    std::uint64_t barged_grants = 0;
    /** Waiters culled to the cold passive list (Malthusian/LCR). */
    std::uint64_t waiters_passivated = 0;
    /** Waiters rotated back from the passive list. */
    std::uint64_t waiters_reactivated = 0;
    /** Total coherence-footprint penalty charged at handoffs. */
    Ticks coherence_penalty = 0;
    /** Sum of distinct-recent-owner counts over handoffs (divide by
     *  handoffs for the average circulation width). */
    std::uint64_t circulation_sum = 0;
    /** @} */
    /** Per-grant contended block times (p99 handoff tails). */
    stats::LatencyHistogram block_hist;
};

/**
 * Counts of injected faults and their recoveries in one run (filled by
 * fault::FaultInjector; all zero when no FaultPlan was active).
 */
struct FaultSummary
{
    /** Total injection events fired. */
    std::uint64_t injections = 0;
    /** Total recovery events fired (online, speed restore, ...). */
    std::uint64_t recoveries = 0;
    std::uint64_t cores_offlined = 0;
    std::uint64_t cores_onlined = 0;
    /** Transient core-slowdown injections. */
    std::uint64_t slowdowns = 0;
    /** Lock-holder preemption bursts (and victims across them). */
    std::uint64_t preempt_bursts = 0;
    std::uint64_t lock_holders_preempted = 0;
    std::uint64_t mutators_killed = 0;
    std::uint64_t mutators_stalled = 0;
    std::uint64_t heap_spikes = 0;
    std::uint64_t gc_worker_losses = 0;
    /** In-flight tasks abandoned by killed mutators. */
    std::uint64_t tasks_reassigned = 0;

    bool
    any() const
    {
        return injections > 0;
    }
};

/**
 * Wait-state attribution buckets: every tick of a task's wall time is
 * assigned to exactly one bucket, so per-task bucket sums reconcile to
 * task wall time integer-exactly (the latency-conservation invariant).
 */
enum class WaitBucket : std::uint8_t
{
    /** On-CPU execution (includes dispatch/preemption overhead). */
    Cpu = 0,
    /** Runnable but waiting in a core's run queue. */
    RunQueue,
    /** Runnable while a safepoint is being brought to stop. */
    Ttsp,
    /** Parked across a stop-the-world GC pause. */
    GcStw,
    /** Blocked on a monitor's acquire queue (lock contention). */
    Lock,
    /** Parked in a monitor's wait set (Object.wait). */
    Waitset,
    /** Blocked on an empty channel (semaphore). */
    Channel,
    /** Parked waiting for a collection it requested (alloc stall). */
    AllocStall,
    /** Parked by the admission governor at a task-fetch boundary. */
    Governor,
    /** Slept or stalled for other reasons (fault stalls, timed waits). */
    Stall,
    /** Blocked for a cause no probe announced. */
    Other,
};

constexpr std::size_t kWaitBucketCount =
    static_cast<std::size_t>(WaitBucket::Other) + 1;

/** Short stable name of @p b ("cpu", "runq", "ttsp", ...). */
const char *waitBucketName(WaitBucket b);

/** Lock wait attributed to one monitor across all profiled tasks. */
struct MonitorWaitTotal
{
    MonitorId monitor = 0;
    /** Total acquire-queue block time charged to this monitor. */
    Ticks wait = 0;
    /** Closed blocking episodes behind the total. */
    std::uint64_t blocks = 0;
};

/** One of the top-K slowest tasks, with its full blame breakdown. */
struct SlowTaskRecord
{
    /** Global completion sequence number (1-based). */
    std::uint64_t task = 0;
    MutatorIndex thread = 0;
    Ticks start = 0;
    Ticks end = 0;
    Ticks buckets[kWaitBucketCount] = {};

    Ticks wall() const { return end - start; }
};

/**
 * Per-run latency attribution (filled by profile::TaskProfiler when
 * profiling is enabled; otherwise enabled == false and all zero).
 * Deliberately not part of the primary stat snapshot: profiled runs
 * stay byte-identical to unprofiled runs in primary stats.
 */
struct ProfileSummary
{
    bool enabled = false;
    /** Tasks attributed (completed inside a profiled window). */
    std::uint64_t tasks = 0;
    /** In-flight windows discarded (killed mutators, run epilogue). */
    std::uint64_t tasks_discarded = 0;
    /** Total ticks per bucket across all attributed tasks. */
    Ticks bucket_total[kWaitBucketCount] = {};
    /** End-to-end task latency distribution. */
    stats::LatencyHistogram latency;
    /** Per-bucket time distributions (one histogram per wait state). */
    stats::LatencyHistogram bucket_hist[kWaitBucketCount];
    /** The K slowest tasks, slowest first (K = profile_topk). */
    std::vector<SlowTaskRecord> slowest;
    /** Per-monitor lock wait, largest first. */
    std::vector<MonitorWaitTotal> lock_waits;

    /** Sum of all bucket totals == sum of attributed task wall time. */
    Ticks
    total() const
    {
        Ticks t = 0;
        for (std::size_t i = 0; i < kWaitBucketCount; ++i)
            t += bucket_total[i];
        return t;
    }

    /** The non-Cpu bucket with the largest total (blame verdict). */
    WaitBucket
    dominantWait() const
    {
        std::size_t best = static_cast<std::size_t>(WaitBucket::RunQueue);
        for (std::size_t i = 1; i < kWaitBucketCount; ++i) {
            if (bucket_total[i] > bucket_total[best])
                best = i;
        }
        return static_cast<WaitBucket>(best);
    }
};

/**
 * Per-request tail-latency summary of one open-loop (traffic) run,
 * filled by traffic::TrafficEngine; enabled == false for the ordinary
 * closed-loop workloads. All times are integer Ticks and conservation
 * holds exactly: sojourn == queueing + service per request, and the
 * service buckets sum to total service time.
 */
struct TrafficSummary
{
    bool enabled = false;
    /** Scheduling group this stream belongs to. */
    std::uint32_t tenant = 0;
    /** The arrival spec that generated the stream (report context). */
    std::string arrival_spec;

    /** Requests offered by the arrival process. */
    std::uint64_t arrivals = 0;
    /** Requests admitted to the bounded queue. */
    std::uint64_t admitted = 0;
    /** Requests shed by the bounded-queue policy. */
    std::uint64_t shed = 0;
    /** Requests picked up by a serving mutator. */
    std::uint64_t dispatched = 0;
    /** Requests that finished service. */
    std::uint64_t completed = 0;
    /** High-water mark of the admission queue. */
    std::uint64_t max_queue_depth = 0;

    /** End-to-end sojourn time (arrival -> completion). */
    stats::LatencyHistogram sojourn;
    /** Queueing delay (arrival -> dispatch). */
    stats::LatencyHistogram queueing;
    /** Service time (dispatch -> completion). */
    stats::LatencyHistogram service;
    /**
     * Service time decomposed into the profiler's wait-state buckets
     * (cpu, runq, ttsp, gc-stw, lock, ...); sums to service exactly.
     */
    Ticks service_bucket_total[kWaitBucketCount] = {};

    /** Total attributed service ticks across the buckets. */
    Ticks
    serviceBucketTotal() const
    {
        Ticks t = 0;
        for (std::size_t i = 0; i < kWaitBucketCount; ++i)
            t += service_bucket_total[i];
        return t;
    }
};

/** Everything measured in one application run. */
struct RunResult
{
    std::string app_name;
    std::uint32_t threads = 0;
    std::uint32_t cores = 0;
    Bytes heap_capacity = 0;

    /** End-to-end execution time (start to last mutator exit). */
    Ticks wall_time = 0;
    /** Total stop-the-world GC time within the run. */
    Ticks gc_time = 0;

    /** Application (non-GC) time, the paper's "mutator time". */
    Ticks
    mutatorTime() const
    {
        return wall_time > gc_time ? wall_time - gc_time : 0;
    }

    GcRunStats gc;
    HeapStats heap;
    LockTotals locks;
    std::vector<ThreadSummary> thread_summaries;
    os::SchedulerStats sched;
    GovernorSummary governor;
    FaultSummary faults;
    ProfileSummary profile;
    TrafficSummary traffic;
    std::uint64_t total_tasks = 0;
    std::uint64_t sim_events = 0;
    /** Invariant evaluations of the run's oracle suite (0 = unarmed;
     *  filled by the run rig). */
    std::uint64_t oracle_checks = 0;

    /** @name Telemetry artifacts (filled by the experiment runner) */
    /** @{ */
    /** Chrome-trace timeline written for this run (empty = disabled). */
    std::string timeline_file;
    /** Metric-sampler CSV written for this run (empty = disabled). */
    std::string metrics_file;
    std::uint64_t timeline_events = 0;
    std::uint64_t metric_rows = 0;
    /**
     * Artifacts that failed to write (one message per failure). The run
     * itself is still valid; the report surfaces these per-artifact.
     */
    std::vector<std::string> artifact_errors;
    /** @} */

    /** @name Run-isolation status (filled by the experiment harness) */
    /** @{ */
    /**
     * Non-empty = the run aborted (watchdog, sim-time guard); only
     * app_name/threads are meaningful then.
     */
    std::string run_error;
    /** The run belongs to another shard's slice and was not executed
     *  here (a shard worker's out-of-slice marker). */
    bool skipped = false;

    bool failed() const { return !run_error.empty(); }
    /** @} */
};

/**
 * The managed runtime. Construct, optionally subscribe listeners, then
 * call run() exactly once.
 */
class JavaVm
{
  public:
    JavaVm(sim::Simulation &sim, machine::Machine &mach,
           os::Scheduler &sched, const VmConfig &config);
    ~JavaVm();

    JavaVm(const JavaVm &) = delete;
    JavaVm &operator=(const JavaVm &) = delete;

    /** Probe chain; subscribe tools before run(). */
    ListenerChain &listeners() { return listeners_; }

    /** Install an admission controller (not owned); before run(). */
    void setTaskAdmission(TaskAdmission *a) { admission_ = a; }

    /** The installed admission controller, or nullptr. */
    TaskAdmission *taskAdmission() const { return admission_; }

    /**
     * Execute @p app with @p n_threads application threads on the
     * machine's enabled cores. Runs the simulation to completion.
     */
    RunResult run(ApplicationModel &app, std::uint32_t n_threads);

    /** @name Hosted (multi-tenant) execution
     * A host running several VMs on one simulation prepares each VM
     * (threads registered and started, nothing simulated yet), drives
     * one shared sim.run(), then collects each VM's RunResult. A
     * prepared VM does not stop the simulation when its mutators
     * finish; it reports through the completion callback instead. */
    /** @{ */
    /** Called (with the finish time) when the last mutator finishes. */
    void setRunCompletedCallback(std::function<void(Ticks)> cb)
    {
        run_completed_cb_ = std::move(cb);
    }

    /** Build the runtime and start @p app's threads; no simulation. */
    void prepare(ApplicationModel &app, std::uint32_t n_threads);

    /** Assemble the RunResult after the shared simulation completed. */
    RunResult collectResult();
    /** @} */

    /** @name Component access (valid during and after run) */
    /** @{ */
    Heap &heap();
    MonitorTable &monitors();
    const VmConfig &config() const { return config_; }
    const VmCosts &costs() const { return config_.costs; }
    sim::Simulation &sim() { return sim_; }
    os::Scheduler &scheduler() { return sched_; }
    /** @} */

    /** @name Runtime-internal callbacks (used by MutatorThread) */
    /** @{ */
    /** Allocation failed; park @p t until the next GC completes. */
    void requestGc(MutatorThread *t, Ticks now);

    /** A mutator ran its End action. */
    void onMutatorFinished(MutatorThread *t, Ticks now);

    /** A mutator completed one application task. */
    void onTaskCompleted(MutatorIndex idx, Ticks now);

    /**
     * Admission check at a task-fetch boundary. True admits; false
     * means the governor parked @p t (the caller returns Blocked).
     */
    bool
    admitTask(MutatorThread *t, Ticks now)
    {
        if (admission_ == nullptr) [[likely]]
            return true;
        if (admission_->admitTask(*t, now))
            return true;
        // Announce the cause before the caller's Blocked transition so
        // wait-state observers can attribute the park to the governor.
        listeners_.dispatch([&](RuntimeListener &l) {
            l.onAdmissionParked(t->index(), now);
        });
        return false;
    }
    /** @} */

    /** @name Live gauges the governor samples each interval */
    /** @{ */
    /** Tasks retired so far across all mutators. */
    std::uint64_t tasksCompleted() const { return total_tasks_; }

    /** Total stop-the-world pause accumulated so far. */
    Ticks gcPauseSoFar() const { return gc_stats_.total_pause; }
    /** @} */

    /** Number of GC worker threads used by the cost model. */
    std::uint32_t gcThreads() const;

    /** @name Fault injection (driven by fault::FaultInjector) */
    /** @{ */
    /** Registered mutators (valid once run() started). */
    std::uint32_t
    mutatorCount() const
    {
        return static_cast<std::uint32_t>(mutators_.size());
    }

    /** Mutator @p idx exists, has not finished and is not kill-pending. */
    bool mutatorAlive(std::uint32_t idx) const;

    /**
     * Kill mutator @p idx: it releases its monitors, abandons any
     * in-flight task (counted in tasksReassigned()), its heap objects
     * die through the normal thread-exit path, and it is removed from
     * whatever wait structure held it (GC waiters, monitor queues,
     * admission park list). Refuses — returning false — when the
     * thread is already finished or kill-pending, or when it is the
     * last alive mutator (the run must still be able to complete).
     */
    bool killMutator(std::uint32_t idx, Ticks now);

    /**
     * Hold mutator @p idx off-CPU until @p until (kill/stall fault).
     * No-op (returning false) for finished mutators.
     */
    bool stallMutator(std::uint32_t idx, Ticks until);

    /**
     * Degrade (or restore) the GC worker count used to price future
     * collections — GC-worker loss: the collector gets slower instead
     * of wedging. Clamped to at least one worker.
     */
    void setGcWorkers(std::uint32_t n);

    /** Current GC worker count (reflects setGcWorkers). */
    std::uint32_t activeGcWorkers() const;

    /** A killed mutator abandoned an in-flight task. */
    void onTaskAbandoned(MutatorIndex idx);

    std::uint64_t tasksReassigned() const { return tasks_reassigned_; }
    /** @} */

    /** @name Progress gauges (sampled by the run watchdog) */
    /** @{ */
    /** Actions executed so far across all mutators. */
    std::uint64_t mutatorActionsExecuted() const;

    std::uint32_t mutatorsFinished() const { return mutators_finished_; }

    /** Completed stop-the-world collections so far. */
    std::uint64_t
    gcEventsCompleted() const
    {
        return gc_stats_.events.size();
    }
    /** @} */

  private:
    void performGcAtSafepoint();
    void finishGc(GcKind kind, const MinorWork &minor,
                  const FullWork &full, bool ran_full, Ticks safepoint_at,
                  const std::vector<GcPhaseCost> &phases);

    /** Apply adaptive sizing after a stop-the-world collection. */
    void maybeResizeYoung(const GcEvent &ev);

    /** @name Concurrent old-generation collector */
    /** @{ */
    /** Kick off a marking cycle if occupancy warrants one. */
    void maybeStartConcurrentCycle();

    /** Marking finished (called from the marker thread's context). */
    void onConcurrentCycleDone();

    /** Schedule the stop-the-world remark (deferred if a GC runs). */
    void requestRemark();
    void performRemarkAtSafepoint();
    void finishRemark(const FullWork &sweep, Ticks safepoint_at);
    /** @} */

    sim::Simulation &sim_;
    machine::Machine &mach_;
    os::Scheduler &sched_;
    VmConfig config_;
    ListenerChain listeners_;
    TaskAdmission *admission_ = nullptr;

    std::unique_ptr<Heap> heap_;
    std::unique_ptr<GcCostModel> cost_model_;
    std::unique_ptr<AdaptiveSizePolicy> adaptive_;
    std::unique_ptr<ConcurrentMarker> marker_;
    bool cycle_active_ = false;
    bool remark_pending_ = false;
    /** Old-gen occupancy right after the last sweep (cycle throttle). */
    Bytes post_sweep_old_used_ = 0;
    std::unique_ptr<MonitorTable> monitors_;
    std::vector<std::unique_ptr<MutatorThread>> mutators_;
    std::vector<std::unique_ptr<HelperThread>> helpers_;

    bool ran_ = false;
    std::uint32_t n_threads_ = 0;
    std::uint32_t mutators_finished_ = 0;
    Ticks run_start_time_ = 0;
    Ticks run_end_time_ = 0;
    std::string app_name_;
    /** Hosted mode: notified instead of stopping the simulation. */
    std::function<void(Ticks)> run_completed_cb_;

    bool gc_in_progress_ = false;
    Ticks gc_requested_at_ = 0;
    /** End time of the previous STW collection (adaptive intervals). */
    Ticks last_gc_end_ = 0;
    std::uint64_t gc_seq_ = 0;
    std::vector<MutatorThread *> gc_waiters_;

    GcRunStats gc_stats_;
    std::uint64_t total_tasks_ = 0;
    /** In-flight tasks abandoned by killed mutators. */
    std::uint64_t tasks_reassigned_ = 0;

    /** Guard against runaway/deadlocked workloads (VmConfig). */
    Ticks max_run_time_ = 0;
};

} // namespace jscale::jvm

#endif // JSCALE_JVM_RUNTIME_VM_HH
