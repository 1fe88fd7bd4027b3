/**
 * @file
 * TaskProfiler: per-task latency attribution over the thread-state
 * ledger.
 *
 * A pure observer — the runtime pays nothing when no profiler is
 * attached and never branches on profiling state. The classification
 * itself is the VM's ThreadStateLedger: every mutator's timeline
 * arrives as contiguous ledger segments, each carrying one WaitBucket.
 * The profiler only cuts them into task windows and aggregates, so the
 * buckets of one task window sum to the window's wall time *by
 * construction* — an integer-exact invariant the check layer's
 * latency-conservation oracle enforces.
 *
 * Task windows run from thread start (or the previous TaskDone) to the
 * next TaskDone. The epilogue after a thread's last task and the
 * in-flight window of a killed mutator are discarded (counted in
 * tasks_discarded), never attributed.
 *
 * One profiler serves a whole VM: the harness's blame summary, the
 * latency oracle and the traffic engine's service decomposition all
 * hang task sinks off the same instance.
 */

#ifndef JSCALE_PROFILE_PROFILER_HH
#define JSCALE_PROFILE_PROFILER_HH

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "base/units.hh"
#include "jvm/runtime/listener.hh"
#include "jvm/runtime/vm.hh"
#include "profile/ledger.hh"

namespace jscale::profile {

/**
 * The attribution observer. Construct, attach(vm, ledger) before
 * run(), call finishRun() after, then read summary(). One profiler
 * observes one VM's run.
 */
class TaskProfiler : public jvm::RuntimeListener, public SegmentListener
{
  public:
    using TaskSink = std::function<void(const jvm::SlowTaskRecord &)>;

    TaskProfiler() = default;
    ~TaskProfiler() override;

    TaskProfiler(const TaskProfiler &) = delete;
    TaskProfiler &operator=(const TaskProfiler &) = delete;

    /** Subscribe to @p vm's runtime chain and to @p ledger, the VM's
     *  thread-state ledger (which must outlive the subscription). */
    void attach(jvm::JavaVm &vm, ThreadStateLedger &ledger);

    /** Unsubscribe (safe to call repeatedly). */
    void detach();

    /**
     * Add a per-task callback, fired at every attributed task
     * completion with the task's full bucket breakdown — the hook the
     * conservation oracle and the traffic engine ride. Sinks run in
     * the order they were added.
     */
    void addTaskSink(TaskSink sink) { sinks_.push_back(std::move(sink)); }

    /** Close any open windows (end of run; open windows discard). */
    void finishRun(Ticks now);

    /** Aggregate results; @p topk bounds the slowest-task list. */
    jvm::ProfileSummary summary(std::uint32_t topk = 5) const;

    /** @name RuntimeListener probes (task-window cuts) */
    /** @{ */
    void onThreadStart(jvm::MutatorIndex thread, Ticks now) override;
    void onThreadFinish(jvm::MutatorIndex thread, Ticks now) override;
    void onTaskEnd(jvm::MutatorIndex thread, std::uint64_t task,
                   Ticks now) override;
    /**
     * Open-loop request pickup: restart the serving thread's window at
     * the dispatch stamp, so the window closed by the next TaskDone
     * covers exactly [dispatch, completion] — per-request service
     * decomposition for the traffic engine. The discarded prelude
     * (channel wait since the previous TaskDone) is the request's
     * *queueing* delay, accounted by the engine, not a lost task.
     */
    void onRequestDispatched(std::uint32_t tenant, std::uint64_t request,
                             jvm::MutatorIndex thread,
                             Ticks now) override;
    /** @} */

    /** A ledger segment closed: charge it to the mutator's window. */
    void onSegment(const os::OsThread &t, const LedgerEntry &closed,
                   const LedgerEntry &next, SegmentEnd why) override;

  private:
    struct MutatorState
    {
        bool live = false;
        bool finished = false;
        /** Start of the current task window. */
        Ticks task_start = 0;
        /** Where the open ledger segment's charge starts: its opening
         *  or the last window cut, whichever is later. */
        Ticks seg_since = 0;
        /** Per-bucket accumulation of the current window. */
        Ticks buckets[jvm::kWaitBucketCount] = {};
    };

    MutatorState &state(jvm::MutatorIndex idx);

    /** Charge @p seg from the last cut to @p end; @p lock_ends counts
     *  one finished block on its monitor. */
    void charge(MutatorState &m, const LedgerEntry &seg, Ticks end,
                bool lock_ends);

    /** Start @p m's next task window at @p now. */
    void restartWindow(MutatorState &m, Ticks now);

    /** Drop @p m's charged window unattributed; attribution stops. */
    void discardWindow(MutatorState &m, Ticks now);

    std::vector<MutatorState> mutators_;

    std::uint64_t tasks_ = 0;
    std::uint64_t tasks_discarded_ = 0;
    Ticks bucket_total_[jvm::kWaitBucketCount] = {};
    stats::LatencyHistogram latency_;
    stats::LatencyHistogram bucket_hist_[jvm::kWaitBucketCount];
    /** monitor id -> (wait, blocks); ordered for deterministic output. */
    std::map<jvm::MonitorId, std::pair<Ticks, std::uint64_t>> lock_waits_;
    /** All attributed tasks' slow-task records, kept bounded. */
    std::vector<jvm::SlowTaskRecord> slowest_;
    /** Bound on slowest_ retention (generous; summary() trims to K). */
    static constexpr std::size_t kSlowKeep = 64;

    std::vector<TaskSink> sinks_;
    jvm::JavaVm *vm_ = nullptr;
    ThreadStateLedger *ledger_ = nullptr;
};

} // namespace jscale::profile

#endif // JSCALE_PROFILE_PROFILER_HH
