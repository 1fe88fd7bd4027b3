/**
 * @file
 * ThreadStateLedger: the one wait-state classification of a VM's
 * threads — *when was this thread blocked, and on what* — shared by
 * every observer that asks.
 *
 * A pure observer on both probe chains. For every OS thread of the
 * attached VM's scheduling group it keeps one open segment {state,
 * WaitBucket, since, monitor}, classified from the scheduler state, the
 * most recent cause probe (monitor contention, wait-set park, channel
 * block, GC wait, admission park) and, for Ready time, the group's
 * stop-the-world phase. A segment closes on every state transition and
 * on every reclassification of an unchanged state (notify() moving a
 * waiter to the acquire queue; a safepoint starting, reaching its stop
 * or resuming under a runnable thread), and each close is delivered
 * once to every SegmentListener. The TaskProfiler and the
 * TelemetryRecorder both read these segments, so they cannot disagree.
 */

#ifndef JSCALE_PROFILE_LEDGER_HH
#define JSCALE_PROFILE_LEDGER_HH

#include <cstdint>
#include <vector>

#include "base/units.hh"
#include "jvm/runtime/listener.hh"
#include "jvm/runtime/vm.hh"
#include "os/sched_listener.hh"

namespace jscale::profile {

/** One thread's classified state from @c since on. */
struct LedgerEntry
{
    os::ThreadState state = os::ThreadState::New;
    jvm::WaitBucket bucket = jvm::WaitBucket::Other;
    Ticks since = 0;
    /** The contended monitor while @c bucket is Lock. */
    jvm::MonitorId monitor = 0;
};

/** Why a segment closed: a state transition, or a new bucket for the
 *  same state (notify, safepoint phase change). */
enum class SegmentEnd : std::uint8_t { Transition, Reclassify };

/** A subscriber to the ledger's closed segments. */
class SegmentListener
{
  public:
    virtual ~SegmentListener() = default;

    /** Thread @p t's segment @p closed ended where @p next opened
     *  (@p next.since). Zero-length segments are delivered too. */
    virtual void onSegment(const os::OsThread &t, const LedgerEntry &closed,
                           const LedgerEntry &next, SegmentEnd why) = 0;
};

/**
 * The per-VM ledger. Construct, attach(vm) before run(), subscribe the
 * consumers; one ledger serves every observer of one VM.
 */
class ThreadStateLedger final : public jvm::RuntimeListener,
                                public os::SchedulerListener
{
  public:
    ThreadStateLedger() = default;
    ~ThreadStateLedger() override;

    ThreadStateLedger(const ThreadStateLedger &) = delete;
    ThreadStateLedger &operator=(const ThreadStateLedger &) = delete;

    /** Subscribe to @p vm's runtime + scheduler probe chains. */
    void attach(jvm::JavaVm &vm);

    /** Unsubscribe (safe to call repeatedly). */
    void detach();

    /** Deliver closed segments to @p l (not owned), in add order. */
    void subscribe(SegmentListener *l) { listeners_.push_back(l); }

    /** Stop delivering to @p l. */
    void unsubscribe(SegmentListener *l);

    /** Mutator @p thread's open segment (it must have been started). */
    const LedgerEntry &entry(jvm::MutatorIndex thread) const;

    /** @name RuntimeListener probes (block causes, safepoint reached) */
    /** @{ */
    void onMonitorContended(jvm::MutatorIndex thread,
                            jvm::MonitorId monitor, Ticks now) override;
    void onMonitorWaitParked(jvm::MutatorIndex thread,
                             jvm::MonitorId monitor, Ticks now) override;
    void onChannelBlocked(jvm::MutatorIndex thread,
                          jvm::ChannelId channel, Ticks now) override;
    void onGcWaitBegin(jvm::MutatorIndex thread, bool local,
                       Ticks now) override;
    void onAdmissionParked(jvm::MutatorIndex thread, Ticks now) override;
    void onSafepointReached(std::uint64_t sequence, Ticks ttsp,
                            Ticks now) override;
    /** @} */

    /** @name SchedulerListener probes, filtered to the VM's group */
    /** @{ */
    void onThreadState(const os::OsThread &t, os::ThreadState prev,
                       Ticks now) override;
    void onWorldStopRequested(std::uint32_t group, Ticks now) override;
    void onWorldResumed(std::uint32_t group, Ticks now) override;
    /** @} */

  private:
    /**
     * One OS thread of the group, indexed by its localId() — which is
     * the MutatorIndex for mutators, registered first.
     */
    struct Slot
    {
        const os::OsThread *thread = nullptr;
        LedgerEntry entry;
        /** Block cause announced by the last cause probe, consumed by
         *  the next Blocked/Sleeping transition (Other = none). */
        jvm::WaitBucket cause = jvm::WaitBucket::Other;
        /** The contended monitor while @c cause is Lock. */
        jvm::MonitorId cause_monitor = 0;
    };

    Slot &slot(std::uint32_t local_id);

    /** Close @p s's open segment and open @p next in its place. */
    void close(Slot &s, const LedgerEntry &next, SegmentEnd why);

    /** Enter a stop-the-world phase: Ready time becomes @p bucket. */
    void setReadyBucket(jvm::WaitBucket bucket, Ticks now);

    std::vector<Slot> threads_;
    std::vector<SegmentListener *> listeners_;
    /** Bucket of Ready time: RunQueue, or Ttsp/GcStw during a stop. */
    jvm::WaitBucket ready_ = jvm::WaitBucket::RunQueue;
    jvm::JavaVm *vm_ = nullptr;
    /** The attached VM's scheduling group (tenant); set by attach(). */
    std::uint32_t group_ = 0;
};

} // namespace jscale::profile

#endif // JSCALE_PROFILE_LEDGER_HH
