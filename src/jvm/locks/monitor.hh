/**
 * @file
 * Java-style monitors and semaphore channels.
 *
 * A Monitor has an uncontended fast path (acquire when free) and a
 * contended slow path: the acquiring thread blocks in a wait queue and
 * ownership is handed off directly at release time, with the *choice*
 * of next owner delegated to a pluggable AdmissionPolicy (strict FIFO
 * by default; see locks/policy.hh). Acquisitions and contention
 * instances are counted exactly as the paper's DTrace probes counted
 * them (Fig. 1a / Fig. 1b), and every transition is published to the
 * RuntimeListener chain for the lock profiler.
 *
 * Contended handoffs optionally charge the grantee a deterministic
 * coherence-footprint penalty that grows with the number of distinct
 * recent lock holders — the cache-line bouncing that makes wide
 * circulation collapse on manycores.
 *
 * A WaitChannel is a counting semaphore used by workload models for
 * producer/consumer stage coupling (bounded pipelines, work handoff).
 */

#ifndef JSCALE_JVM_LOCKS_MONITOR_HH
#define JSCALE_JVM_LOCKS_MONITOR_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "jvm/locks/policy.hh"
#include "jvm/runtime/listener.hh"
#include "stats/stats.hh"

namespace jscale::os {
class Scheduler;
class OsThread;
} // namespace jscale::os

namespace jscale::jvm {

/**
 * Interface implemented by threads that can block on monitors and
 * channels (MutatorThread). Grant callbacks fire while the thread is
 * still parked, immediately before the scheduler wake.
 */
class MonitorWaiter
{
  public:
    virtual ~MonitorWaiter() = default;

    /** Monitor ownership was handed to this thread. */
    virtual void monitorGranted(MonitorId monitor) = 0;

    /** A channel permit was granted to this thread. */
    virtual void channelGranted(ChannelId channel) = 0;

    /** The OS thread to wake. */
    virtual os::OsThread *osThread() const = 0;

    /** Application-level thread index (for stats/listeners). */
    virtual MutatorIndex mutatorIndex() const = 0;

    /**
     * A contended handoff charged this thread @p penalty ticks of
     * coherence-footprint cost; the thread pays it as extra CPU time
     * inside the new hold window. Default ignores it (test doubles).
     */
    virtual void chargeHandoffPenalty(Ticks penalty) { (void)penalty; }
};

/**
 * HotSpot-style lock states. A fresh monitor is bias-able; the first
 * owner biases it; an acquisition by a different thread revokes the
 * bias (thin locking); actual contention inflates the lock to a fat
 * monitor with a wait queue, where it stays.
 */
enum class LockState : std::uint8_t { Neutral, Biased, Thin, Fat };

/** Per-monitor counters matching the paper's lock-usage metrics. */
struct MonitorStats
{
    std::uint64_t acquisitions = 0;
    std::uint64_t contentions = 0;
    Ticks total_hold_time = 0;
    Ticks total_block_time = 0;
    std::uint32_t max_queue_depth = 0;
    /** @name HotSpot lock-state breakdown */
    /** @{ */
    std::uint64_t biased_acquisitions = 0;
    std::uint64_t thin_acquisitions = 0;
    std::uint64_t fat_acquisitions = 0;
    std::uint64_t bias_revocations = 0;
    std::uint64_t inflations = 0;
    /** @} */
    /** Object.wait() calls. */
    std::uint64_t waits = 0;
    /** Object.notify()/notifyAll() calls. */
    std::uint64_t notifies = 0;
    /** @name Admission-policy behaviour */
    /** @{ */
    /** Contended handoffs (direct grants at release). */
    std::uint64_t handoffs = 0;
    /** Handoffs that bypassed an older queued waiter (unfair grants). */
    std::uint64_t barged_grants = 0;
    /** Waiters moved to the cold passive list (culling policies). */
    std::uint64_t waiters_passivated = 0;
    /** Waiters rotated back from the passive list. */
    std::uint64_t waiters_reactivated = 0;
    /** Total coherence-footprint penalty charged at handoffs. */
    Ticks coherence_penalty = 0;
    /** Sum over handoffs of the distinct recent-owner count — divide
     *  by handoffs for the average circulation width. */
    std::uint64_t circulation_sum = 0;
    /** @} */
    /** Per-grant block times (contended waits), for p99 tails. */
    stats::LatencyHistogram block_hist;
};

class MonitorTable;

/** A single monitor. Created through the MonitorTable. */
class Monitor : private AdmissionPolicy::Events
{
  public:
    Monitor(MonitorId id, std::string name, os::Scheduler &sched,
            const ListenerChain *listeners, MonitorTable *table,
            const LockPolicyConfig &policy_cfg);

    MonitorId id() const { return id_; }
    const std::string &name() const { return name_; }

    /**
     * Try to acquire for @p waiter at @p now.
     * @return true on immediate (uncontended or free) acquisition; false
     * when the waiter was queued — the caller must block, and
     * monitorGranted() + a scheduler wake will arrive at handoff.
     */
    bool acquire(MonitorWaiter *waiter, Ticks now);

    /**
     * Release by the current owner; hands off to the queue head if any
     * (counting a contended acquisition for it) and wakes it.
     */
    void release(MonitorWaiter *waiter, Ticks now);

    /**
     * Java Object.wait(): the owner atomically releases the monitor
     * (handing off to the queue head, if any) and parks in the waitset
     * until a notify moves it back to the acquire queue. The caller must
     * block; monitorGranted() arrives after re-acquisition.
     */
    void waitOn(MonitorWaiter *waiter, Ticks now);

    /**
     * Java Object.notify()/notifyAll(): move up to @p count waitset
     * members (FIFO) to the acquire queue. Must be called by the owner.
     */
    void notify(MonitorWaiter *waiter, std::uint32_t count, Ticks now);

    /**
     * Remove @p waiter from the acquire queue and/or waitset without
     * granting (thread kill). Returns true if the waiter was parked
     * here. Ownership is unaffected — a killed owner must release().
     * Acquire-queue removals fire onMonitorWaiterCancelled so FIFO
     * observers drop the queue entry.
     */
    bool cancelWaiter(MonitorWaiter *waiter, Ticks now);

    /** Current owner (nullptr when free). */
    MonitorWaiter *owner() const { return owner_; }

    /** Current HotSpot-style lock state. */
    LockState state() const { return state_; }

    /** Queued waiters (active + passive lists together). */
    std::size_t queueDepth() const { return policy_->depth(); }

    /** Waiters on the cold passive list (culling policies only). */
    std::size_t passiveDepth() const { return policy_->passiveDepth(); }

    /** The admission policy steering contended handoffs. */
    LockPolicy policy() const { return policy_->kind(); }

    const MonitorStats &monStats() const { return stats_; }

  private:
    void grant(MonitorWaiter *waiter, Ticks now, bool contended);

    /** Release protocol shared by release() and waitOn(). */
    void releaseInternal(MonitorWaiter *waiter, Ticks now);

    /** Queue @p waiter on the contended slow path (acquire/notify). */
    void enqueueContended(MonitorWaiter *waiter, Ticks now);

    /**
     * Coherence-footprint cost of handing the lock to @p waiter:
     * handoff_base + coherence_cost * distinct *other* threads among
     * the last circulation_window contended grantees. Also records the
     * grantee into the circulation window and accumulates the
     * circulation stats.
     */
    Ticks handoffPenalty(const MonitorWaiter *waiter);

    /** @name AdmissionPolicy::Events */
    /** @{ */
    void waiterPassivated(MonitorWaiter *w, Ticks now) override;
    void waiterReactivated(MonitorWaiter *w, Ticks now) override;
    /** @} */

    MonitorId id_;
    std::string name_;
    os::Scheduler &sched_;
    const ListenerChain *listeners_;
    MonitorTable *table_;
    const LockPolicyConfig cfg_;

    MonitorWaiter *owner_ = nullptr;
    Ticks acquired_at_ = 0;
    LockState state_ = LockState::Neutral;
    /** Thread the lock is biased toward (Biased state only). */
    const MonitorWaiter *bias_holder_ = nullptr;
    /** Contended-waiter queue discipline (owns the waiting set). */
    std::unique_ptr<AdmissionPolicy> policy_;
    /** Threads parked by waitOn(), FIFO. */
    std::deque<MonitorWaiter *> waitset_;
    /** @name Circulation window (ring of recent contended grantees) */
    /** @{ */
    /** circulation_window slots, unused ones holding kNoOwner. */
    static constexpr MutatorIndex kNoOwner = ~MutatorIndex{0};
    std::vector<MutatorIndex> recent_owners_;
    /** Slot the next grantee takes: the oldest one. */
    std::size_t recent_next_ = 0;
    /** Window occurrences per thread (by MutatorIndex); non-zero ones. */
    std::vector<std::uint32_t> owner_counts_;
    std::uint32_t distinct_owners_ = 0;
    /** @} */
    MonitorStats stats_;
};

/**
 * Counting semaphore for producer/consumer coupling. acquire() consumes
 * a permit or blocks FIFO; post() adds permits, waking blocked waiters
 * first.
 */
class WaitChannel
{
  public:
    WaitChannel(ChannelId id, std::string name, std::uint64_t permits,
                os::Scheduler &sched, const ListenerChain *listeners);

    ChannelId id() const { return id_; }
    const std::string &name() const { return name_; }

    /** @return true if a permit was consumed; false if queued/blocked. */
    bool acquire(MonitorWaiter *waiter, Ticks now);

    /** Add @p n permits; wakes up to @p n blocked waiters. */
    void post(std::uint64_t n, Ticks now);

    /** Remove @p waiter from the queue without granting (thread kill). */
    bool cancelWaiter(MonitorWaiter *waiter);

    /** Permits currently available. */
    std::uint64_t permits() const { return permits_; }

    /** Number of blocked waiters. */
    std::size_t queueDepth() const { return queue_.size(); }

  private:
    ChannelId id_;
    std::string name_;
    os::Scheduler &sched_;
    const ListenerChain *listeners_;
    std::uint64_t permits_;
    std::deque<MonitorWaiter *> queue_;
};

/**
 * Registry of all monitors and channels in a VM, plus aggregate counts
 * used by the study's Fig. 1a/1b series.
 */
class MonitorTable
{
  public:
    MonitorTable(os::Scheduler &sched, const ListenerChain *listeners,
                 const LockPolicyConfig &policy_cfg = {})
        : sched_(sched), listeners_(listeners), policy_cfg_(policy_cfg)
    {}

    /** Create a monitor; ids are dense and start at 0. */
    MonitorId createMonitor(const std::string &name);

    /** Create a channel with @p permits initial permits. */
    ChannelId createChannel(const std::string &name, std::uint64_t permits);

    Monitor &monitor(MonitorId id);
    const Monitor &monitor(MonitorId id) const;
    WaitChannel &channel(ChannelId id);

    std::size_t monitorCount() const { return monitors_.size(); }

    /** Sum of acquisitions over all monitors. */
    std::uint64_t totalAcquisitions() const;

    /** Sum of contention instances over all monitors. */
    std::uint64_t totalContentions() const;

    /** Sum of block time over all monitors. */
    Ticks totalBlockTime() const;

    /**
     * Threads blocked on monitor acquire queues right now (the live
     * "blocked_now" gauge sampled by the telemetry layer; waitset
     * parkers are excluded — they are waiting, not contending).
     */
    std::size_t totalQueuedWaiters() const;

    /** Aggregate HotSpot lock-state counters over all monitors. */
    MonitorStats aggregateStats() const;

    /** @name Deadlock detection (wait-for graph maintenance) */
    /** @{ */
    /**
     * Record that @p waiter blocks on @p monitor and walk the wait-for
     * graph (blocked thread -> monitor -> owner -> ...); panics with the
     * cycle description if @p waiter closes a cycle.
     */
    void onBlocked(MonitorWaiter *waiter, MonitorId monitor);

    /** @p waiter was granted the monitor it blocked on. */
    void onGranted(MonitorWaiter *waiter);
    /** @} */

    /**
     * Remove @p waiter from every monitor queue/waitset and channel
     * queue and drop its wait-for edge (thread kill). Returns true if
     * the waiter was parked anywhere.
     */
    bool cancelWaiter(MonitorWaiter *waiter, Ticks now);

  private:
    os::Scheduler &sched_;
    const ListenerChain *listeners_;
    /** Admission policy applied to every monitor created here. */
    const LockPolicyConfig policy_cfg_;
    std::vector<std::unique_ptr<Monitor>> monitors_;
    std::vector<std::unique_ptr<WaitChannel>> channels_;

    /** Follow the wait-for edges from @p self, calling @p edge(monitor,
     *  owner) per hop; true when the walk returns to @p self. */
    template <typename F>
    bool walkWaitFor(MutatorIndex self, F &&edge) const;

    /** Wait-for edges: the monitor each thread (by MutatorIndex) blocks
     *  on, or kNotBlocked. */
    static constexpr MonitorId kNotBlocked = ~MonitorId{0};
    std::vector<MonitorId> blocked_on_;
};

} // namespace jscale::jvm

#endif // JSCALE_JVM_LOCKS_MONITOR_HH
