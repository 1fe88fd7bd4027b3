/**
 * @file
 * Pluggable monitor admission policies for the contended slow path.
 *
 * A Monitor delegates *who gets the lock next* to an AdmissionPolicy.
 * Strict FIFO is the HotSpot-faithful baseline; the alternatives model
 * the designs from the scalability-collapse literature:
 *
 *  - Barging: an unfair lock with a bounded barging window at release.
 *    The grant rotates over the first W queue positions, so the head
 *    can be bypassed but never starves more than W-1 consecutive
 *    handoffs. Circulation stays as wide as FIFO's — barging trades
 *    fairness for nothing here, which is exactly the collapse result.
 *  - Malthusian (Dice): excess waiters are passivated onto a cold
 *    passive list and only a small active set circulates over the
 *    lock; periodic rotation moves the oldest passive waiter back in
 *    front for long-term fairness.
 *  - LCR (Dice & Kogan, "Avoiding Scalability Collapse by Restricting
 *    Concurrency"): like Malthusian, but the active-set bound tracks
 *    the measured service capacity 1 + think/hold instead of a fixed
 *    target.
 *
 * Policies are pure deterministic functions of the event sequence —
 * no clocks, no randomness — so runs stay byte-identical at any
 * `--jobs` and an external oracle can mirror every decision from the
 * listener event stream alone.
 */

#ifndef JSCALE_JVM_LOCKS_POLICY_HH
#define JSCALE_JVM_LOCKS_POLICY_HH

#include <cstdint>
#include <memory>
#include <string>

#include "base/units.hh"

namespace jscale::jvm {

class MonitorWaiter;

/** Admission policy selector for every monitor in a VM. */
enum class LockPolicy : std::uint8_t { Fifo, Barging, Malthusian, Lcr };

/** Render a LockPolicy name ("fifo", "barging", ...). */
const char *lockPolicyName(LockPolicy p);

/** All policy names, for CLI help and fuzz-case generation. */
inline constexpr LockPolicy kAllLockPolicies[] = {
    LockPolicy::Fifo,
    LockPolicy::Barging,
    LockPolicy::Malthusian,
    LockPolicy::Lcr,
};

/**
 * Admission-policy configuration, shared by every monitor of a VM.
 * The defaults (FIFO, zero handoff costs) reproduce the pre-policy
 * monitor byte for byte.
 */
struct LockPolicyConfig
{
    LockPolicy policy = LockPolicy::Fifo;

    /** Barging: grant window at the queue head (>= 1). */
    std::uint32_t barge_window = 4;

    /** Malthusian: fixed active-set bound (>= 1). */
    std::uint32_t active_target = 2;

    /**
     * Malthusian/LCR: every rotation_period-th contended handoff
     * reactivates the oldest passive waiter (0 = never rotate). Bounds
     * passive starvation: the waiter at passive position p is granted
     * within (p+1) * rotation_period further contended handoffs.
     */
    std::uint32_t rotation_period = 32;

    /** LCR: clamp bounds of the measured active-set cap. */
    std::uint32_t lcr_min_active = 1;
    std::uint32_t lcr_max_active = 8;

    /** @name Coherence-footprint handoff cost model
     * A contended handoff charges the grantee
     *   handoff_base + coherence_cost * distinct_other_owners
     * where distinct_other_owners counts the distinct *other* threads
     * among the last circulation_window contended grantees of this
     * monitor — the lock-protected data a wide circulation keeps
     * bouncing between caches. Zero (the default) charges nothing, so
     * policy-free runs are unchanged. */
    /** @{ */
    Ticks handoff_base = 0;
    Ticks coherence_cost = 0;
    std::uint32_t circulation_window = 32;
    /** @} */
};

/** One-line "k=v k=v" rendering for fingerprints and reports. */
std::string describeLockPolicyConfig(const LockPolicyConfig &cfg);

/**
 * Queue discipline of one monitor's contended acquire path. The
 * Monitor owns one instance per monitor and routes every slow-path
 * transition through it; the policy owns the waiting set (active and,
 * for culling policies, passive lists).
 */
class AdmissionPolicy
{
  public:
    /** Callbacks into the owning Monitor for waiter state changes that
     *  must reach the listener chain (the oracle mirrors them). */
    class Events
    {
      public:
        virtual ~Events() = default;
        /** @p w moved from the active set to the cold passive list. */
        virtual void waiterPassivated(MonitorWaiter *w, Ticks now) = 0;
        /** @p w moved from the passive list back to the active set. */
        virtual void waiterReactivated(MonitorWaiter *w, Ticks now) = 0;
    };

    /** Result of selecting the next lock holder. */
    struct Grant
    {
        MonitorWaiter *waiter = nullptr;
        /** When the waiter first queued (block-time accounting). */
        Ticks since = 0;
        /** The grant bypassed an older queued waiter (unfair grant). */
        bool bypassed_head = false;
    };

    virtual ~AdmissionPolicy() = default;

    virtual LockPolicy kind() const = 0;

    /** A contended acquirer joins the waiting set. */
    virtual void enqueue(MonitorWaiter *w, Ticks now) = 0;

    /**
     * Choose the next owner at release time and remove it from the
     * waiting set. Precondition: !empty(). May fire passivation /
     * reactivation events before returning the grant.
     */
    virtual Grant selectNext(Ticks now) = 0;

    /** Remove @p w without granting (thread kill). True if present. */
    virtual bool cancel(MonitorWaiter *w) = 0;

    virtual bool empty() const = 0;

    /** Waiters held, active and passive together. */
    virtual std::size_t depth() const = 0;

    /** Waiters on the cold passive list (0 for non-culling policies). */
    virtual std::size_t passiveDepth() const { return 0; }

    /** The owner released after holding for @p hold (LCR capacity
     *  measurement; default ignores it). */
    virtual void noteRelease(MonitorWaiter *w, Ticks now, Ticks hold)
    {
        (void)w; (void)now; (void)hold;
    }
};

/** Build the policy selected by @p cfg for one monitor. */
std::unique_ptr<AdmissionPolicy>
makeAdmissionPolicy(const LockPolicyConfig &cfg,
                    AdmissionPolicy::Events *events);

} // namespace jscale::jvm

#endif // JSCALE_JVM_LOCKS_POLICY_HH
