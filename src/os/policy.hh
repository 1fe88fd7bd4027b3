/**
 * @file
 * Scheduling policies.
 *
 * The default policy is plain round-robin FIFO. BiasedPolicy implements
 * the paper's future-work suggestion (Sec. IV): worker threads are
 * grouped and the groups take turns being eligible to run, staggering
 * execution phases to reduce lifetime interference — fewer threads
 * allocate concurrently, so objects of off-phase threads stop inflating
 * the allocated-bytes lifespans of on-phase objects.
 */

#ifndef JSCALE_OS_POLICY_HH
#define JSCALE_OS_POLICY_HH

#include <cstdint>
#include <unordered_map>

#include "base/units.hh"
#include "os/thread.hh"

namespace jscale::sim { class Simulation; }

namespace jscale::os {

/**
 * Eligibility hook consulted by the scheduler before dispatching a ready
 * thread. Ineligible threads stay queued.
 */
class SchedPolicy
{
  public:
    virtual ~SchedPolicy() = default;

    /** Called when a thread is registered with the scheduler. */
    virtual void onRegister(const OsThread &thread) { (void)thread; }

    /** Whether @p thread may be dispatched at @p now. */
    virtual bool eligible(const OsThread &thread, Ticks now) const = 0;

    /** Diagnostic name. */
    virtual const char *policyName() const = 0;
};

/** Work-conserving FIFO round-robin: everything is always eligible. */
class DefaultPolicy : public SchedPolicy
{
  public:
    bool
    eligible(const OsThread &, Ticks) const override
    {
        return true;
    }

    const char *policyName() const override { return "default"; }
};

/**
 * Phase-staggered ("biased") scheduling of mutator threads.
 *
 * Mutators are assigned round-robin to @p groups groups; only one group
 * is phase-active at a time, rotating every @p phase_quantum. Helper and
 * daemon threads are unaffected. The rotation event is driven by the
 * owning Scheduler (see Scheduler::setPolicy), which also re-kicks idle
 * cores on each rotation.
 */
class BiasedPolicy : public SchedPolicy
{
  public:
    /**
     * @param groups number of phase groups (>= 1)
     * @param phase_quantum time each group stays active
     */
    BiasedPolicy(std::uint32_t groups, Ticks phase_quantum);

    void onRegister(const OsThread &thread) override;
    bool eligible(const OsThread &thread, Ticks now) const override;
    const char *policyName() const override { return "biased"; }

    /** Group that is phase-active at @p now. */
    std::uint32_t activeGroup(Ticks now) const;

    /** Group assigned to mutator thread @p id (only valid for mutators). */
    std::uint32_t groupOf(ThreadId id) const;

    std::uint32_t groups() const { return groups_; }

  private:
    std::uint32_t groups_;
    Ticks phase_quantum_;
    std::uint32_t next_group_ = 0;
    std::unordered_map<ThreadId, std::uint32_t> group_of_;
};

} // namespace jscale::os

#endif // JSCALE_OS_POLICY_HH
