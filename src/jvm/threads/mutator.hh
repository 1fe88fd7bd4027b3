/**
 * @file
 * MutatorThread: an application thread executing an action stream.
 *
 * Implements the scheduler's burst protocol (plan CPU time, then commit
 * effects when the time has been paid) and the blocking protocols of
 * monitors, channels and GC waits. The thread itself is a pure
 * interpreter; all application behaviour lives in its ActionSource.
 */

#ifndef JSCALE_JVM_THREADS_MUTATOR_HH
#define JSCALE_JVM_THREADS_MUTATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "jvm/locks/monitor.hh"
#include "jvm/threads/action.hh"
#include "os/thread.hh"

namespace jscale::jvm {

class JavaVm;

/** Per-thread execution statistics. */
struct MutatorStats
{
    std::uint64_t actions_executed = 0;
    std::uint64_t tasks_completed = 0;
    std::uint64_t allocations = 0;
    Bytes bytes_allocated = 0;
    std::uint64_t gc_waits = 0;
};

/**
 * One application thread. Owned by the JavaVm; scheduled by the OS
 * scheduler through the SchedClient interface.
 */
class MutatorThread : public os::SchedClient, public MonitorWaiter
{
  public:
    MutatorThread(JavaVm &vm, MutatorIndex index,
                  std::unique_ptr<ActionSource> source, std::string name);
    ~MutatorThread() override;

    /** @name SchedClient */
    /** @{ */
    Ticks planBurst(Ticks now, Ticks limit) override;
    os::BurstOutcome finishBurst(Ticks now, Ticks elapsed) override;
    std::string clientName() const override { return name_; }

    /** A mutator holding monitors must stay schedulable under gating
     *  policies, or lock handoff chains would convoy across phases. */
    bool urgent() const override { return !held_ids_.empty(); }
    /** @} */

    /** @name MonitorWaiter */
    /** @{ */
    void monitorGranted(MonitorId monitor) override;
    void channelGranted(ChannelId channel) override;
    os::OsThread *osThread() const override { return os_thread_; }
    MutatorIndex mutatorIndex() const override { return index_; }
    void chargeHandoffPenalty(Ticks penalty) override
    {
        pending_penalty_ += penalty;
    }
    /** @} */

    /** Bind the scheduler-side thread record (done once by the VM). */
    void bindOsThread(os::OsThread *t);

    /** Called by the VM when the GC this thread waited for completed. */
    void gcWaitOver();

    MutatorIndex index() const { return index_; }

    /** Size of the allocation this thread is blocked on (GC wait). */
    Bytes pendingAllocBytes() const { return current_->bytes; }

    bool finished() const { return finished_; }
    const MutatorStats &mutStats() const { return stats_; }

    /** @name Fault injection (mutator kill) */
    /** @{ */
    /**
     * Mark the thread for termination at its next burst: held monitors
     * are released in reverse acquisition order, the in-flight action is
     * abandoned (counted as a reassigned task when one was live), and
     * the thread finishes — its heap objects die through the normal
     * thread-exit lifespan machinery. The VM is responsible for waking a
     * blocked thread so the kill executes.
     */
    void requestKill() { kill_pending_ = true; }

    bool killPending() const { return kill_pending_; }
    bool killed() const { return killed_; }

    /** Blocked waiting for a GC (used by the VM's kill path). */
    bool awaitingGc() const { return awaiting_gc_; }

    /** Blocked in a monitor/channel queue (kill path). */
    bool awaitingGrant() const { return awaiting_grant_; }

    /** Clear a cancelled GC wait (the VM removed us from the waiters). */
    void cancelGcWait();

    /** Clear a cancelled monitor/channel wait (queue entry removed). */
    void cancelGrantWait();
    /** @} */

  private:
    /** Consume the current action after its effect was applied. */
    void consumeAction();

    /** Price an action's CPU cost (always >= 1 tick). */
    Ticks actionCost(const Action &a) const;

    /** Perform a pending kill at a burst boundary. */
    os::BurstOutcome executeKill(Ticks now);

    /** Forget @p monitor as held for a @p what ("exit", "wait");
     *  panics unless it is held. */
    void dropHeld(MonitorId monitor, const char *what);

    JavaVm &vm_;
    MutatorIndex index_;
    std::unique_ptr<ActionSource> source_;
    std::string name_;
    os::OsThread *os_thread_ = nullptr;

    /** The action being executed, read in place from the source's
     *  span; nullptr between actions. */
    const Action *current_ = nullptr;
    /** Unpaid CPU cost of the current action. */
    Ticks remaining_cost_ = 0;
    /** Coherence penalty from a contended handoff, paid as extra CPU
     *  time on the next fetched action (inside the hold window). */
    Ticks pending_penalty_ = 0;
    /** Blocked waiting for a monitor/channel grant. */
    bool awaiting_grant_ = false;
    /** Blocked waiting for a GC to complete (allocation retry). */
    bool awaiting_gc_ = false;
    bool finished_ = false;
    /** Ids of the monitors this thread owns, in acquisition order
     *  (Monitor::acquire refuses recursion, so each appears once). */
    std::vector<MonitorId> held_ids_;
    /** Fault injection: terminate at the next burst boundary. */
    bool kill_pending_ = false;
    bool killed_ = false;

    MutatorStats stats_;
};

} // namespace jscale::jvm

#endif // JSCALE_JVM_THREADS_MUTATOR_HH
