/**
 * @file
 * TelemetryRecorder: turns the runtime and scheduler probe streams into
 * a Chrome-trace timeline.
 *
 * The recorder subscribes to both probe chains (jvm::RuntimeListener and
 * os::SchedulerListener) plus the VM's profile::ThreadStateLedger, and
 * emits three track groups:
 *
 *  - pid 1 "cores":   one track per core. CPU bursts as spans named by
 *    the thread that ran (with dispatch overhead / steal / preempt
 *    args), idle gaps as explicit "idle" spans, migrations and
 *    preemptions as instants.
 *  - pid 2 "threads": one track per OS thread. Contiguous state spans,
 *    rendered from the ledger's segments: running, ready-wait,
 *    at-safepoint (ready while a stop-the-world is in progress),
 *    lock-blocked (in a monitor's acquire queue, with the contended
 *    monitor id), blocked (any other block, the wait set included),
 *    sleeping.
 *  - pid 3 "vm":      safepoint bring-to-stop spans (track 0), GC
 *    umbrella + component-phase spans (track 1), concurrent-mark cycle
 *    spans (track 2).
 *
 * Span arithmetic is exact: bring-to-stop spans sum to the run's
 * total_ttsp and GC phase spans partition [safepoint, finish], so the
 * timeline totals reconcile with RunResult's tick accounting.
 */

#ifndef JSCALE_TELEMETRY_RECORDER_HH
#define JSCALE_TELEMETRY_RECORDER_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "base/units.hh"
#include "jvm/runtime/listener.hh"
#include "os/sched_listener.hh"
#include "profile/ledger.hh"
#include "telemetry/timeline.hh"

namespace jscale::jvm {
class JavaVm;
} // namespace jscale::jvm

namespace jscale::telemetry {

/** Track-group (pid) layout of the emitted trace. */
enum TrackGroup : std::uint32_t
{
    kCoresPid = 1,
    kThreadsPid = 2,
    kVmPid = 3,
    kFaultsPid = 4,
    kProfilePid = 5,
};

/** Tracks within the "vm" group. */
enum VmTrack : std::uint32_t
{
    kSafepointTid = 0,
    kGcTid = 1,
    kConcMarkTid = 2,
};

/**
 * The probe-to-timeline bridge. Construct over a Timeline, attach() to a
 * VM before run(), call finish() with the run end time afterwards.
 */
class TelemetryRecorder : public jvm::RuntimeListener,
                          public os::SchedulerListener,
                          public profile::SegmentListener
{
  public:
    explicit TelemetryRecorder(Timeline &timeline);
    ~TelemetryRecorder() override;

    TelemetryRecorder(const TelemetryRecorder &) = delete;
    TelemetryRecorder &operator=(const TelemetryRecorder &) = delete;

    /** Subscribe to @p vm's runtime and scheduler probe chains and to
     *  @p ledger, the VM's thread-state ledger. */
    void attach(jvm::JavaVm &vm, profile::ThreadStateLedger &ledger);

    /** Unsubscribe (idempotent; also run by the destructor). */
    void detach();

    /**
     * Close all open spans at @p end (run end): per-thread state spans,
     * in-flight bursts, trailing idle gaps and an unfinished concurrent
     * mark cycle.
     */
    void finish(Ticks end);

    /** @name os::SchedulerListener */
    /** @{ */
    void onDispatch(const os::OsThread &t, machine::CoreId core,
                    Ticks overhead, bool stolen, Ticks now) override;
    void onBurstEnd(const os::OsThread &t, machine::CoreId core,
                    Ticks started, bool preempted, Ticks now) override;
    void onMigrate(const os::OsThread &t, machine::CoreId from,
                   machine::CoreId to, Ticks now) override;
    /** @} */

    /** A ledger segment closed: close its span, open the next one. */
    void onSegment(const os::OsThread &t, const profile::LedgerEntry &closed,
                   const profile::LedgerEntry &next,
                   profile::SegmentEnd why) override;

    /** @name jvm::RuntimeListener */
    /** @{ */
    void onSafepointReached(std::uint64_t sequence, Ticks ttsp,
                            Ticks now) override;
    void onGcPhase(std::uint64_t sequence, jvm::GcKind kind,
                   const char *phase, Ticks begin, Ticks end) override;
    void onGcEnd(const jvm::GcEvent &event, Ticks now) override;
    void onConcurrentMarkBegin(std::uint64_t cycle, Ticks now) override;
    void onConcurrentMarkEnd(std::uint64_t cycle, bool aborted,
                             Ticks now) override;
    void onGovernorDecision(std::uint32_t target, std::uint32_t active,
                            std::uint32_t parked,
                            std::uint64_t tasks_delta, Ticks now) override;
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

  private:
    /** Open state span on a thread track. */
    struct ThreadTrack
    {
        os::ThreadId tid = 0;
        /** Span name; nullptr while no span is open. */
        const char *label = nullptr;
        Ticks since = 0;
        /** Monitor id attached to the current lock-blocked span. */
        std::uint32_t monitor = kNoMonitor;
    };

    /** Core-track bookkeeping: the in-flight burst and the idle gap. */
    struct CoreTrack
    {
        bool busy = false;
        std::string runner;
        os::ThreadId runner_id = 0;
        bool stolen = false;
        Ticks overhead = 0;
        Ticks burst_since = 0;
        Ticks idle_since = 0;
        bool named = false;
    };

    static constexpr std::uint32_t kNoMonitor = ~0u;

    /** Ensure the per-thread track exists and is named. */
    ThreadTrack &threadTrack(const os::OsThread &t);
    CoreTrack &coreTrack(machine::CoreId core);

    void closeState(ThreadTrack &tr, Ticks now);

    Timeline &timeline_;
    jvm::JavaVm *vm_ = nullptr;
    profile::ThreadStateLedger *ledger_ = nullptr;

    std::map<os::ThreadId, ThreadTrack> threads_;
    std::map<machine::CoreId, CoreTrack> cores_;

    /** Emit the "traffic" counter point (queued + in-flight) at @p now. */
    void trafficCounter(Ticks now);

    /** Open-loop traffic model: ids admitted but not yet dispatched
     *  (drop-newest sheds are rejected pre-admission and never enter),
     *  plus the number of requests currently being served. */
    std::set<std::uint64_t> queued_requests_;
    std::uint64_t requests_inflight_ = 0;
    std::uint64_t requests_shed_ = 0;

    bool mark_open_ = false;
    std::uint64_t mark_cycle_ = 0;
    Ticks mark_since_ = 0;
    bool finished_ = false;
};

} // namespace jscale::telemetry

#endif // JSCALE_TELEMETRY_RECORDER_HH
