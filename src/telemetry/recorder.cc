#include "telemetry/recorder.hh"

#include <utility>

#include "jvm/runtime/vm.hh"
#include "os/scheduler.hh"

namespace jscale::telemetry {

namespace {

/** Span name of ledger entry @p e; nullptr when no span is shown. */
const char *
spanLabel(const profile::LedgerEntry &e)
{
    switch (e.state) {
      case os::ThreadState::Running:
        return "running";
      case os::ThreadState::Ready:
        return e.bucket == jvm::WaitBucket::RunQueue ? "ready-wait"
                                                     : "at-safepoint";
      case os::ThreadState::Blocked:
        return e.bucket == jvm::WaitBucket::Lock ? "lock-blocked"
                                                 : "blocked";
      case os::ThreadState::Sleeping:
        return "sleeping";
      case os::ThreadState::New:
      case os::ThreadState::Finished:
        break;
    }
    return nullptr;
}

} // namespace

TelemetryRecorder::TelemetryRecorder(Timeline &timeline)
    : timeline_(timeline)
{
    timeline_.processName(kCoresPid, "cores");
    timeline_.processName(kThreadsPid, "threads");
    timeline_.processName(kVmPid, "vm");
    timeline_.threadName(kVmPid, kSafepointTid, "safepoint");
    timeline_.threadName(kVmPid, kGcTid, "gc");
    timeline_.threadName(kVmPid, kConcMarkTid, "concurrent-mark");
}

TelemetryRecorder::~TelemetryRecorder()
{
    detach();
}

void
TelemetryRecorder::attach(jvm::JavaVm &vm,
                          profile::ThreadStateLedger &ledger)
{
    detach();
    vm_ = &vm;
    ledger_ = &ledger;
    vm_->listeners().add(this);
    vm_->scheduler().listeners().add(this);
    ledger.subscribe(this);
}

void
TelemetryRecorder::detach()
{
    if (vm_ == nullptr)
        return;
    vm_->listeners().remove(this);
    vm_->scheduler().listeners().remove(this);
    ledger_->unsubscribe(this);
    vm_ = nullptr;
    ledger_ = nullptr;
}

TelemetryRecorder::ThreadTrack &
TelemetryRecorder::threadTrack(const os::OsThread &t)
{
    auto [it, inserted] = threads_.try_emplace(t.id());
    if (inserted) {
        it->second.tid = t.id();
        timeline_.threadName(kThreadsPid, t.id(), t.name());
    }
    return it->second;
}

TelemetryRecorder::CoreTrack &
TelemetryRecorder::coreTrack(machine::CoreId core)
{
    CoreTrack &ct = cores_[core];
    if (!ct.named) {
        ct.named = true;
        timeline_.threadName(kCoresPid, core,
                             "core " + std::to_string(core));
    }
    return ct;
}

void
TelemetryRecorder::closeState(ThreadTrack &tr, Ticks now)
{
    const char *label = std::exchange(tr.label, nullptr);
    if (label == nullptr || now == tr.since)
        return; // nothing open, or a zero-length state (skip the noise)
    const TraceArg args[1] = {targ("monitor", tr.monitor)};
    timeline_.span(kThreadsPid, tr.tid, label, "state", tr.since, now,
                   Timeline::Args(args, tr.monitor != kNoMonitor ? 1 : 0));
}

void
TelemetryRecorder::onDispatch(const os::OsThread &t, machine::CoreId core,
                              Ticks overhead, bool stolen, Ticks now)
{
    CoreTrack &ct = coreTrack(core);
    if (!ct.busy && now > ct.idle_since) {
        timeline_.span(kCoresPid, core, "idle", "idle", ct.idle_since,
                       now);
    }
    ct.busy = true;
    ct.runner = t.name();
    ct.runner_id = t.id();
    ct.stolen = stolen;
    ct.overhead = overhead;
    ct.burst_since = now;
}

void
TelemetryRecorder::onBurstEnd(const os::OsThread &t, machine::CoreId core,
                              Ticks started, bool preempted, Ticks now)
{
    CoreTrack &ct = coreTrack(core);
    TraceArg args[4] = {targ("thread", t.id()),
                        targ("overhead_ns", ct.overhead)};
    std::size_t n = 2;
    if (ct.stolen)
        args[n++] = targ("stolen", "true");
    if (preempted)
        args[n++] = targ("preempted", "true");
    timeline_.span(kCoresPid, core, t.name(), "burst", started, now,
                   Timeline::Args(args, n));
    if (preempted) {
        timeline_.instant(kCoresPid, core, "preempt", "sched", now,
                          {targ("thread", t.id())});
    }
    ct.busy = false;
    ct.idle_since = now;
}

void
TelemetryRecorder::onMigrate(const os::OsThread &t, machine::CoreId from,
                             machine::CoreId to, Ticks now)
{
    timeline_.instant(kCoresPid, to, "migrate", "sched", now,
                      {targ("thread", t.id()), targ("from", from),
                       targ("to", to)});
}

void
TelemetryRecorder::onSegment(const os::OsThread &t,
                             const profile::LedgerEntry &closed,
                             const profile::LedgerEntry &next,
                             profile::SegmentEnd why)
{
    (void)closed;
    ThreadTrack &tr = threadTrack(t);
    const char *label = spanLabel(next);
    const std::uint32_t monitor =
        next.bucket == jvm::WaitBucket::Lock ? next.monitor : kNoMonitor;
    // A reclassification that keeps the label (time-to-safepoint turning
    // into the pause) continues the open span. spanLabel returns one
    // pointer per label, so pointers compare as labels.
    if (why == profile::SegmentEnd::Reclassify && tr.label == label &&
        tr.monitor == monitor)
        return;
    closeState(tr, next.since);
    tr.label = label;
    tr.since = next.since;
    tr.monitor = monitor;
}

void
TelemetryRecorder::onSafepointReached(std::uint64_t sequence, Ticks ttsp,
                                      Ticks now)
{
    timeline_.span(kVmPid, kSafepointTid, "bring-to-stop", "safepoint",
                   now - ttsp, now, {targ("sequence", sequence)});
}

void
TelemetryRecorder::onGcPhase(std::uint64_t sequence, jvm::GcKind kind,
                             const char *phase, Ticks begin, Ticks end)
{
    timeline_.span(kVmPid, kGcTid, phase, "gc-phase", begin, end,
                   {targ("sequence", sequence),
                    targ("kind", jvm::gcKindName(kind))});
}

void
TelemetryRecorder::onGcEnd(const jvm::GcEvent &event, Ticks now)
{
    (void)now;
    timeline_.span(
        kVmPid, kGcTid, jvm::gcKindName(event.kind), "gc",
        event.safepoint_at, event.finished_at,
        {targ("sequence", event.sequence),
         targ("ttsp_ns", event.timeToSafepoint()),
         targ("moved_bytes", event.moved_bytes),
         targ("promoted_bytes", event.promoted_bytes),
         targ("reclaimed_bytes", event.reclaimed_bytes)});
}

void
TelemetryRecorder::onConcurrentMarkBegin(std::uint64_t cycle, Ticks now)
{
    mark_open_ = true;
    mark_cycle_ = cycle;
    mark_since_ = now;
}

void
TelemetryRecorder::onConcurrentMarkEnd(std::uint64_t cycle, bool aborted,
                                       Ticks now)
{
    if (!mark_open_)
        return;
    mark_open_ = false;
    const TraceArg args[2] = {targ("cycle", cycle),
                              targ("aborted", "true")};
    timeline_.span(kVmPid, kConcMarkTid, "concurrent-mark", "gc",
                   mark_since_, now, Timeline::Args(args, aborted ? 2 : 1));
}

void
TelemetryRecorder::onGovernorDecision(std::uint32_t target,
                                      std::uint32_t active,
                                      std::uint32_t parked,
                                      std::uint64_t tasks_delta, Ticks now)
{
    timeline_.counter(
        kVmPid, "governor", now,
        {targ("target", target), targ("active", active),
         targ("parked", parked), targ("tasks", tasks_delta)});
}

void
TelemetryRecorder::trafficCounter(Ticks now)
{
    timeline_.counter(
        kVmPid, "traffic", now,
        {targ("queued", queued_requests_.size()),
         targ("inflight", requests_inflight_)});
}

void
TelemetryRecorder::onRequestArrival(std::uint32_t tenant,
                                    std::uint64_t request, Ticks now)
{
    (void)tenant; // one recorder per VM; probes arrive on its chain only
    queued_requests_.insert(request);
    trafficCounter(now);
}

void
TelemetryRecorder::onRequestShed(std::uint32_t tenant,
                                 std::uint64_t request, Ticks now)
{
    (void)tenant;
    ++requests_shed_;
    timeline_.instant(kVmPid, kSafepointTid, "request-shed", "traffic",
                      now,
                      {targ("request", request),
                       targ("shed_total", requests_shed_)});
    if (queued_requests_.erase(request) > 0)
        trafficCounter(now);
}

void
TelemetryRecorder::onRequestDispatched(std::uint32_t tenant,
                                       std::uint64_t request,
                                       jvm::MutatorIndex thread, Ticks now)
{
    (void)tenant;
    (void)thread;
    queued_requests_.erase(request);
    ++requests_inflight_;
    trafficCounter(now);
}

void
TelemetryRecorder::onRequestCompleted(std::uint32_t tenant,
                                      std::uint64_t request,
                                      jvm::MutatorIndex thread, Ticks now)
{
    (void)tenant;
    (void)request;
    (void)thread;
    if (requests_inflight_ > 0)
        --requests_inflight_;
    trafficCounter(now);
}

void
TelemetryRecorder::finish(Ticks end)
{
    if (finished_)
        return;
    finished_ = true;
    for (auto &[id, tr] : threads_) {
        (void)id;
        closeState(tr, end);
    }
    for (auto &[core, ct] : cores_) {
        if (ct.busy) {
            timeline_.span(kCoresPid, core, ct.runner, "burst",
                           ct.burst_since, end,
                           {targ("thread", ct.runner_id),
                            targ("truncated", "true")});
        } else if (end > ct.idle_since) {
            timeline_.span(kCoresPid, core, "idle", "idle", ct.idle_since,
                           end);
        }
    }
    if (mark_open_) {
        mark_open_ = false;
        timeline_.span(kVmPid, kConcMarkTid, "concurrent-mark", "gc",
                       mark_since_, end,
                       {targ("cycle", mark_cycle_),
                        targ("truncated", "true")});
    }
}

} // namespace jscale::telemetry
