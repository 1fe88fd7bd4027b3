/**
 * @file
 * Invariant oracles: machine-checked validators for the simulator's
 * core contracts, attached through the existing RuntimeListener /
 * SchedulerListener probe chains (the same interfaces the tracer,
 * lock profiler and telemetry use — the runtime does not know it is
 * being checked).
 *
 * The suite continuously validates, on every delivered event:
 *
 *   1. heap byte conservation — every allocated object dies exactly
 *      once, the suite's independent live-byte ledger reconciles with
 *      the heap's gauge after every alloc/death, and stop-the-world
 *      reclaim never exceeds the bytes that actually died;
 *   2. monitor mutual exclusion + legal handoff — at most one holder
 *      per monitor, releases only by the holder, no uncontended
 *      acquisition past queued waiters, and contended grants legal
 *      under the run's admission policy (jvm::LockPolicy): FIFO grants
 *      the queue head only; barging grants within the barging window
 *      with the head bypassed at most window-1 consecutive times;
 *      Malthusian/LCR grant only the active-set head, passivations
 *      take the active tail, reactivations take the oldest passivated
 *      waiter, and no passivated waiter starves past its rotation
 *      bound;
 *   3. scheduler work conservation — legal thread-state transitions,
 *      no double-booked cores, no dispatch while the world is stopped,
 *      and starvation-freedom: no runnable thread waits longer than a
 *      capacity-scaled grace period (stop-the-world time credited);
 *   4. lifespan-metric monotonicity — per-owner death clocks
 *      (birth_global_bytes + lifespan) never run backwards and never
 *      exceed the global allocation clock;
 *   5. event-queue ordering — observed `now` is monotonic across both
 *      probe chains, safepoints pair begin/reached with exact ttsp,
 *      GC phases partition [safepoint, finish] without gap or overlap,
 *      and no allocation lands inside a stop-the-world window;
 *   6. latency conservation — every task's wait-state attribution
 *      buckets (profile::TaskProfiler) sum to the task's wall time
 *      exactly, in integer simulation ticks;
 *   7. request conservation (open-loop traffic) — request boundaries
 *      are well-ordered per request (arrival <= dispatch <=
 *      completion), shed requests are never dispatched, no worker
 *      serves two requests at once, the profiled service window opens
 *      exactly at the dispatch stamp and closes exactly at the
 *      completion stamp (so sojourn == queueing + attributed service
 *      buckets, integer-exactly), and every admitted request is either
 *      shed or completed by run end.
 *
 * Each failure is reported as a diagnosed InvariantViolation naming
 * the object/monitor/thread and the simulation time.
 */

#ifndef JSCALE_CHECK_ORACLE_HH
#define JSCALE_CHECK_ORACLE_HH

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/error.hh"
#include "base/units.hh"
#include "jvm/locks/policy.hh"
#include "jvm/runtime/listener.hh"
#include "os/sched_listener.hh"

namespace jscale::jvm {
class JavaVm;
}
namespace jscale::os {
class Scheduler;
}
namespace jscale::profile {
class TaskProfiler;
}

namespace jscale::check {

/** One diagnosed invariant failure. */
struct InvariantViolation
{
    /** Which oracle fired: "heap-conservation", "monitor-exclusion",
     *  "monitor-fifo", "sched-conservation", "lifespan-monotonic",
     *  "event-ordering", "latency-conservation" or
     *  "request-conservation". */
    std::string oracle;
    /** Diagnosis naming the object/monitor/thread involved. */
    std::string message;
    /** Simulation time of the offending event. */
    Ticks at = 0;

    /** "oracle: message (at <time>)" */
    std::string format() const;
};

/**
 * An armed oracle detected a violation: the run aborts at its first
 * one. Derives AbortError so the experiment harness isolates the
 * failure per run (error artifact + failed() marker) exactly like a
 * watchdog timeout.
 */
class OracleError : public AbortError
{
  public:
    /** What every message starts with; the violation's format()
     *  follows it. */
    static constexpr std::string_view kPrefix = "invariant violation: ";

    explicit OracleError(const InvariantViolation &v)
        : AbortError(std::string(kPrefix) + v.format()), violation(v)
    {}

    InvariantViolation violation;
};

/**
 * The oracle suite. Subscribe with attach() before JavaVm::run(); call
 * finishRun() after the run returns for end-of-run checks (leaked
 * objects, threads still starving, unbalanced world stops).
 *
 * All per-event work is O(1) amortized (hash-map ledger, deque queue
 * models) so armed oracles stay well under the harness's overhead
 * budget.
 */
class OracleSuite final : public jvm::RuntimeListener,
                          public os::SchedulerListener
{
  public:
    OracleSuite();
    ~OracleSuite() override;

    OracleSuite(const OracleSuite &) = delete;
    OracleSuite &operator=(const OracleSuite &) = delete;

    /**
     * Subscribe to @p vm's runtime and scheduler probe chains and
     * self-configure gates from the VM/scheduler configuration
     * (compartment mode, TLABs, scheduling policy). The latency and
     * request-conservation oracles add a task sink to @p profiler, the
     * VM's attribution profiler, which must outlive the run.
     */
    void attach(jvm::JavaVm &vm, profile::TaskProfiler &profiler);

    /** Unsubscribe (safe to call twice; the destructor calls it). */
    void detach();

    /** End-of-run checks; @p now is the final simulation time. */
    void finishRun(Ticks now);

    /** Violations recorded so far: empty on a clean run, else the one
     *  whose OracleError aborted it. */
    const std::vector<InvariantViolation> &violations() const
    {
        return violations_;
    }

    /** Individual invariant evaluations performed. */
    std::uint64_t checksPerformed() const { return checks_; }

    /**
     * Whether the starvation-freedom check is armed. attach() disarms
     * it on configurations where unbounded ready waits are legitimate
     * (biased phase-gated policies, stealing disabled).
     */
    bool starvationArmed() const { return starvation_; }

    /** @name RuntimeListener probes */
    /** @{ */
    void onObjectAlloc(const jvm::ObjectRecord &obj, Ticks now) override;
    void onObjectDeath(const jvm::ObjectRecord &obj, Bytes lifespan,
                       Ticks now) override;
    void onMonitorAcquire(jvm::MutatorIndex thread, jvm::MonitorId monitor,
                          bool contended, Ticks now) override;
    void onMonitorContended(jvm::MutatorIndex thread,
                            jvm::MonitorId monitor, Ticks now) override;
    void onMonitorRelease(jvm::MutatorIndex thread, jvm::MonitorId monitor,
                          Ticks now) override;
    void onMonitorWaiterCancelled(jvm::MutatorIndex thread,
                                  jvm::MonitorId monitor,
                                  Ticks now) override;
    void onMonitorWaiterPassivated(jvm::MutatorIndex thread,
                                   jvm::MonitorId monitor,
                                   Ticks now) override;
    void onMonitorWaiterReactivated(jvm::MutatorIndex thread,
                                    jvm::MonitorId monitor,
                                    Ticks now) override;
    void onSafepointBegin(std::uint64_t sequence, Ticks now) override;
    void onSafepointReached(std::uint64_t sequence, Ticks ttsp,
                            Ticks now) override;
    void onGcStart(jvm::GcKind kind, std::uint64_t sequence,
                   Ticks now) override;
    void onGcPhase(std::uint64_t sequence, jvm::GcKind kind,
                   const char *phase, Ticks begin, Ticks end) override;
    void onGcEnd(const jvm::GcEvent &event, Ticks now) override;
    void onRequestArrival(std::uint32_t tenant, std::uint64_t request,
                          Ticks now) override;
    void onRequestShed(std::uint32_t tenant, std::uint64_t request,
                       Ticks now) override;
    void onRequestDispatched(std::uint32_t tenant, std::uint64_t request,
                             jvm::MutatorIndex thread,
                             Ticks now) override;
    void onRequestCompleted(std::uint32_t tenant, std::uint64_t request,
                            jvm::MutatorIndex thread,
                            Ticks now) override;
    /** @} */

    /** @name SchedulerListener probes */
    /** @{ */
    void onDispatch(const os::OsThread &t, machine::CoreId core,
                    Ticks overhead, bool stolen, Ticks now) override;
    void onBurstEnd(const os::OsThread &t, machine::CoreId core,
                    Ticks started, bool preempted, Ticks now) override;
    void onThreadState(const os::OsThread &t, os::ThreadState prev,
                       Ticks now) override;
    void onWorldStopRequested(std::uint32_t group, Ticks now) override;
    void onWorldResumed(std::uint32_t group, Ticks now) override;
    /** @} */

  private:
    /** Record a violation and throw it as an OracleError. */
    void report(const char *oracle, std::string message, Ticks now);

    /** Monotonic-time check shared by every probe. */
    void observeTime(Ticks now);

    /** Ready-wait bound for the current capacity (threads vs cores). */
    Ticks starvationLimit() const;

    /** Stop-the-world time accumulated up to @p now. */
    Ticks stoppedTicks(Ticks now) const;

    /** Check one thread's ready wait against the bound. */
    void checkReadyWait(std::size_t idx, Ticks now, bool at_dispatch);

    /** One passivated waiter and its starvation bound. */
    struct PassiveEntry
    {
        jvm::MutatorIndex thread = 0;
        /** MonitorModel::grants at the moment of passivation. */
        std::uint64_t passivated_at = 0;
        /** Max contended grants before it must be reactivated (0 = no
         *  bound — rotation disabled). */
        std::uint64_t bound = 0;
    };

    struct MonitorModel
    {
        /** Holder mutator index; -1 = free. */
        std::int64_t holder = -1;
        /** Active acquire queue (onMonitorContended order, minus
         *  passivated waiters). */
        std::deque<jvm::MutatorIndex> queue;
        /** Cold passivated waiters, oldest first (culling policies). */
        std::deque<PassiveEntry> passive;
        /** Contended grants observed on this monitor. */
        std::uint64_t grants = 0;
        /** Consecutive contended grants that bypassed the queue head
         *  (barging-window starvation bound). */
        std::uint32_t head_miss_streak = 0;
    };

    struct ThreadModel
    {
        os::ThreadState state = os::ThreadState::New;
        bool seen = false;
        Ticks ready_since = 0;
        /** stoppedTicks() at the moment the thread became Ready. */
        Ticks stop_credit = 0;
    };

    struct CoreModel
    {
        /** Occupying thread id + 1; 0 = idle. */
        std::uint64_t running = 0;
        Ticks dispatched_at = 0;
        /** Occupant is a mutator (helper bursts may be truncated by
         *  VM shutdown without a closing onBurstEnd). */
        bool mutator = false;
    };

    /** One open-loop request's observed lifecycle. */
    struct RequestModel
    {
        Ticks arrival = 0;
        Ticks dispatch = 0;
        bool dispatched = false;
        bool shed = false;
        bool completed = false;
    };

    /** The request a worker thread is currently serving. */
    struct ServingModel
    {
        bool active = false;
        std::uint64_t request = 0;
        Ticks dispatch = 0;
        /** onRequestCompleted has stamped the completion time. */
        bool completed = false;
        Ticks completion = 0;
        /** The profiler's closed window has been cross-checked. */
        bool window_seen = false;
        Ticks window_end = 0;
    };

    MonitorModel &monitorModel(jvm::MonitorId id);

    /** Per-policy legality of one contended grant (removes the grantee
     *  from the model queue when legal). */
    void checkContendedGrant(MonitorModel &m, jvm::MutatorIndex thread,
                             jvm::MonitorId monitor, Ticks now);

    /** No passivated waiter may starve past its rotation bound. */
    void checkRotationBounds(MonitorModel &m, jvm::MonitorId monitor,
                             Ticks now);
    ThreadModel &threadModel(std::size_t id);
    CoreModel &coreModel(std::size_t id);
    ServingModel &servingModel(jvm::MutatorIndex thread);

    /** Reconcile a closed serving record once both the completion probe
     *  and the profiler window have been observed. */
    void settleServing(jvm::MutatorIndex thread, Ticks now);

    /** Is scheduling group @p g inside a stop-the-world window? */
    bool groupStopped(std::uint32_t g) const
    {
        return g < group_stopped_.size() && group_stopped_[g];
    }

    /** The starvation gate; every other oracle is always armed. */
    bool starvation_ = true;
    /** Admission policy of the attached VM (attach() reads it); the
     *  handoff model validates against this discipline. */
    jvm::LockPolicyConfig locks_;
    jvm::JavaVm *vm_ = nullptr;
    const os::Scheduler *sched_ = nullptr;
    bool attached_ = false;

    /** TLAB reservation makes reclaim exceed dead-object bytes. */
    bool reclaim_accounting_ = true;

    std::vector<InvariantViolation> violations_;
    std::uint64_t checks_ = 0;

    /** @name Heap-conservation state */
    /** @{ */
    std::unordered_map<std::uint64_t, Bytes> live_; ///< id -> size
    Bytes model_live_bytes_ = 0;
    Bytes pending_dead_bytes_ = 0;
    /** @} */

    /** @name Lifespan-monotonicity state (per-owner death clocks) */
    std::vector<Bytes> death_clock_;

    /** @name Monitor state */
    std::vector<MonitorModel> monitors_;

    /** @name Scheduler state */
    /** @{ */
    std::vector<ThreadModel> threads_;
    std::vector<CoreModel> cores_;
    std::size_t max_thread_id_ = 0;
    /** @} */

    /** @name Request-conservation state (open-loop traffic) */
    /** @{ */
    std::unordered_map<std::uint64_t, RequestModel> requests_;
    std::vector<ServingModel> serving_;
    std::uint64_t requests_admitted_ = 0;
    std::uint64_t requests_shed_ = 0;
    std::uint64_t requests_completed_ = 0;
    /** @} */

    /** @name Ordering / safepoint / GC state */
    /** @{ */
    Ticks last_now_ = 0;
    /** The attached VM's scheduling group (tenant); set by attach(). */
    std::uint32_t group_ = 0;
    /** Per-group stop-the-world windows (shared scheduler). Index is
     *  the scheduling group; world_stopped_ mirrors our own group's
     *  entry for the safepoint/GC pairing checks. */
    std::vector<bool> group_stopped_;
    bool world_stopped_ = false;
    bool at_safepoint_ = false;
    Ticks stop_began_ = 0;
    Ticks stopped_accum_ = 0;
    bool safepoint_pending_ = false;
    std::uint64_t safepoint_seq_ = 0;
    Ticks safepoint_begin_at_ = 0;
    bool in_gc_ = false;
    std::uint64_t gc_seq_ = 0;
    Ticks gc_started_at_ = 0;
    Ticks phase_cursor_ = 0;
    std::uint64_t phases_seen_ = 0;
    /** @} */
};

} // namespace jscale::check

#endif // JSCALE_CHECK_ORACLE_HH
