#include "profile/profiler.hh"

#include <algorithm>

#include "base/logging.hh"

namespace jscale::profile {

TaskProfiler::~TaskProfiler()
{
    detach();
}

void
TaskProfiler::attach(jvm::JavaVm &vm, ThreadStateLedger &ledger)
{
    jscale_assert(vm_ == nullptr, "profiler already attached");
    vm_ = &vm;
    ledger_ = &ledger;
    vm.listeners().add(this);
    ledger.subscribe(this);
}

void
TaskProfiler::detach()
{
    if (vm_ == nullptr)
        return;
    vm_->listeners().remove(this);
    ledger_->unsubscribe(this);
    vm_ = nullptr;
    ledger_ = nullptr;
}

TaskProfiler::MutatorState &
TaskProfiler::state(jvm::MutatorIndex idx)
{
    if (idx >= mutators_.size())
        mutators_.resize(idx + 1);
    return mutators_[idx];
}

void
TaskProfiler::charge(MutatorState &m, const LedgerEntry &seg, Ticks end,
                     bool lock_ends)
{
    const Ticks span = end - m.seg_since;
    m.buckets[static_cast<std::size_t>(seg.bucket)] += span;
    if (seg.bucket == jvm::WaitBucket::Lock) {
        auto &[wait, blocks] = lock_waits_[seg.monitor];
        wait += span;
        if (lock_ends)
            ++blocks;
    }
    m.seg_since = end;
}

void
TaskProfiler::restartWindow(MutatorState &m, Ticks now)
{
    m.task_start = now;
    std::fill(std::begin(m.buckets), std::end(m.buckets), 0);
}

void
TaskProfiler::discardWindow(MutatorState &m, Ticks now)
{
    if (now > m.task_start)
        ++tasks_discarded_;
    restartWindow(m, now);
    m.finished = true;
}

void
TaskProfiler::onThreadStart(jvm::MutatorIndex thread, Ticks now)
{
    MutatorState &m = state(thread);
    m.live = true;
    m.seg_since = now;
    restartWindow(m, now);
}

void
TaskProfiler::onThreadFinish(jvm::MutatorIndex thread, Ticks now)
{
    MutatorState &m = state(thread);
    if (!m.live || m.finished)
        return;
    charge(m, ledger_->entry(thread), now, /*lock_ends=*/false);
    discardWindow(m, now);
}

void
TaskProfiler::onTaskEnd(jvm::MutatorIndex thread, std::uint64_t task,
                        Ticks now)
{
    MutatorState &m = state(thread);
    if (!m.live || m.finished)
        return;
    charge(m, ledger_->entry(thread), now, /*lock_ends=*/false);

    jvm::SlowTaskRecord rec;
    rec.task = task;
    rec.thread = thread;
    rec.start = m.task_start;
    rec.end = now;
    std::copy(std::begin(m.buckets), std::end(m.buckets),
              std::begin(rec.buckets));

    ++tasks_;
    latency_.add(rec.wall());
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        bucket_total_[i] += m.buckets[i];
        bucket_hist_[i].add(m.buckets[i]);
    }

    for (const TaskSink &sink : sinks_)
        sink(rec);

    // Keep the slowest records, wall-time descending, sequence-number
    // ascending on ties — a total order, so retention is deterministic.
    const auto slower = [](const jvm::SlowTaskRecord &a,
                           const jvm::SlowTaskRecord &b) {
        if (a.wall() != b.wall())
            return a.wall() > b.wall();
        return a.task < b.task;
    };
    slowest_.insert(
        std::upper_bound(slowest_.begin(), slowest_.end(), rec, slower),
        rec);
    if (slowest_.size() > kSlowKeep)
        slowest_.resize(kSlowKeep);

    restartWindow(m, now);
}

void
TaskProfiler::onSegment(const os::OsThread &t, const LedgerEntry &closed,
                        const LedgerEntry &next, SegmentEnd why)
{
    (void)why;
    if (t.kind() != os::ThreadKind::Mutator)
        return;
    MutatorState &m = state(static_cast<jvm::MutatorIndex>(t.localId()));
    if (!m.live || m.finished)
        return;
    const bool finished = next.state == os::ThreadState::Finished;
    charge(m, closed, next.since,
           !finished && next.bucket != jvm::WaitBucket::Lock);
    if (finished)
        discardWindow(m, next.since);
}

void
TaskProfiler::onRequestDispatched(std::uint32_t tenant,
                                  std::uint64_t request,
                                  jvm::MutatorIndex thread, Ticks now)
{
    (void)tenant; (void)request; // probes arrive on our VM's chain only
    MutatorState &m = state(thread);
    if (!m.live || m.finished)
        return;
    // Drop the accumulated prelude (queueing, charged by the traffic
    // engine) and restart the window here; the open segment (on-CPU,
    // fetching the next action) carries into the new window.
    charge(m, ledger_->entry(thread), now, /*lock_ends=*/false);
    restartWindow(m, now);
}

void
TaskProfiler::finishRun(Ticks now)
{
    for (std::size_t i = 0; i < mutators_.size(); ++i) {
        MutatorState &m = mutators_[i];
        if (!m.live || m.finished)
            continue;
        charge(m, ledger_->entry(static_cast<jvm::MutatorIndex>(i)), now,
               /*lock_ends=*/false);
        discardWindow(m, now);
    }
}

jvm::ProfileSummary
TaskProfiler::summary(std::uint32_t topk) const
{
    jvm::ProfileSummary s;
    s.enabled = true;
    s.tasks = tasks_;
    s.tasks_discarded = tasks_discarded_;
    std::copy(std::begin(bucket_total_), std::end(bucket_total_),
              std::begin(s.bucket_total));
    s.latency = latency_;
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
        s.bucket_hist[i] = bucket_hist_[i];
    const std::size_t k =
        std::min<std::size_t>(topk, slowest_.size());
    s.slowest.assign(slowest_.begin(), slowest_.begin() + k);
    for (const auto &[monitor, totals] : lock_waits_) {
        jvm::MonitorWaitTotal w;
        w.monitor = monitor;
        w.wait = totals.first;
        w.blocks = totals.second;
        s.lock_waits.push_back(w);
    }
    std::sort(s.lock_waits.begin(), s.lock_waits.end(),
              [](const jvm::MonitorWaitTotal &a,
                 const jvm::MonitorWaitTotal &b) {
                  if (a.wait != b.wait)
                      return a.wait > b.wait;
                  return a.monitor < b.monitor;
              });
    return s;
}

} // namespace jscale::profile
