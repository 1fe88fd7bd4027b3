#include "profile/ledger.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jscale::profile {

ThreadStateLedger::~ThreadStateLedger()
{
    detach();
}

void
ThreadStateLedger::attach(jvm::JavaVm &vm)
{
    jscale_assert(vm_ == nullptr, "ledger already attached");
    vm_ = &vm;
    group_ = vm.config().tenant;
    vm.listeners().add(this);
    vm.scheduler().listeners().add(this);
}

void
ThreadStateLedger::detach()
{
    if (vm_ == nullptr)
        return;
    vm_->listeners().remove(this);
    vm_->scheduler().listeners().remove(this);
    vm_ = nullptr;
}

void
ThreadStateLedger::unsubscribe(SegmentListener *l)
{
    listeners_.erase(std::remove(listeners_.begin(), listeners_.end(), l),
                     listeners_.end());
}

const LedgerEntry &
ThreadStateLedger::entry(jvm::MutatorIndex thread) const
{
    jscale_assert(thread < threads_.size() &&
                      threads_[thread].thread != nullptr,
                  "ledger has not seen mutator ", thread);
    return threads_[thread].entry;
}

ThreadStateLedger::Slot &
ThreadStateLedger::slot(std::uint32_t local_id)
{
    if (local_id >= threads_.size())
        threads_.resize(local_id + 1);
    return threads_[local_id];
}

void
ThreadStateLedger::close(Slot &s, const LedgerEntry &next, SegmentEnd why)
{
    const LedgerEntry closed = s.entry;
    s.entry = next;
    for (SegmentListener *l : listeners_)
        l->onSegment(*s.thread, closed, next, why);
}

void
ThreadStateLedger::setReadyBucket(jvm::WaitBucket bucket, Ticks now)
{
    ready_ = bucket;
    const LedgerEntry next{os::ThreadState::Ready, bucket, now, 0};
    for (Slot &s : threads_) {
        if (s.thread != nullptr && s.entry.state == os::ThreadState::Ready &&
            s.entry.bucket != bucket)
            close(s, next, SegmentEnd::Reclassify);
    }
}

void
ThreadStateLedger::onMonitorContended(jvm::MutatorIndex thread,
                                      jvm::MonitorId monitor, Ticks now)
{
    Slot &s = slot(thread);
    if (s.entry.bucket == jvm::WaitBucket::Waitset) {
        // notify() moved the thread from the wait set to the acquire
        // queue while it stays Blocked: reclassify mid-block.
        close(s, {os::ThreadState::Blocked, jvm::WaitBucket::Lock, now,
                  monitor},
              SegmentEnd::Reclassify);
        return;
    }
    s.cause = jvm::WaitBucket::Lock;
    s.cause_monitor = monitor;
}

void
ThreadStateLedger::onMonitorWaitParked(jvm::MutatorIndex thread,
                                       jvm::MonitorId monitor, Ticks now)
{
    (void)monitor; (void)now;
    slot(thread).cause = jvm::WaitBucket::Waitset;
}

void
ThreadStateLedger::onChannelBlocked(jvm::MutatorIndex thread,
                                    jvm::ChannelId channel, Ticks now)
{
    (void)channel; (void)now;
    slot(thread).cause = jvm::WaitBucket::Channel;
}

void
ThreadStateLedger::onGcWaitBegin(jvm::MutatorIndex thread, bool local,
                                 Ticks now)
{
    (void)local; (void)now;
    slot(thread).cause = jvm::WaitBucket::AllocStall;
}

void
ThreadStateLedger::onAdmissionParked(jvm::MutatorIndex thread, Ticks now)
{
    (void)now;
    slot(thread).cause = jvm::WaitBucket::Governor;
}

void
ThreadStateLedger::onSafepointReached(std::uint64_t sequence, Ticks ttsp,
                                      Ticks now)
{
    (void)sequence; (void)ttsp;
    setReadyBucket(jvm::WaitBucket::GcStw, now);
}

void
ThreadStateLedger::onThreadState(const os::OsThread &t,
                                 os::ThreadState prev, Ticks now)
{
    (void)prev;
    if (t.group() != group_ || t.state() == os::ThreadState::New)
        return;
    Slot &s = slot(t.localId());
    if (s.thread == nullptr) {
        s.thread = &t;
        s.entry.since = now;
    }

    LedgerEntry next{t.state(), jvm::WaitBucket::Other, now, 0};
    switch (t.state()) {
      case os::ThreadState::Running:
        next.bucket = jvm::WaitBucket::Cpu;
        break;
      case os::ThreadState::Ready:
        next.bucket = ready_;
        break;
      case os::ThreadState::Blocked:
        // Other when no probe announced a cause (helpers never do).
        next.bucket = s.cause;
        if (s.cause == jvm::WaitBucket::Lock)
            next.monitor = s.cause_monitor;
        s.cause = jvm::WaitBucket::Other;
        break;
      case os::ThreadState::Sleeping:
        // A local (compartment) collection parks its requester in a
        // timed sleep; anything else sleeping is a generic stall.
        next.bucket = s.cause == jvm::WaitBucket::AllocStall
                          ? jvm::WaitBucket::AllocStall
                          : jvm::WaitBucket::Stall;
        s.cause = jvm::WaitBucket::Other;
        break;
      case os::ThreadState::Finished:
      case os::ThreadState::New:
        break;
    }
    close(s, next, SegmentEnd::Transition);
}

void
ThreadStateLedger::onWorldStopRequested(std::uint32_t group, Ticks now)
{
    if (group == group_)
        setReadyBucket(jvm::WaitBucket::Ttsp, now);
}

void
ThreadStateLedger::onWorldResumed(std::uint32_t group, Ticks now)
{
    if (group == group_)
        setReadyBucket(jvm::WaitBucket::RunQueue, now);
}

} // namespace jscale::profile
