#include "jvm/threads/mutator.hh"

#include <algorithm>
#include <limits>

#include "base/logging.hh"
#include "jvm/runtime/vm.hh"

namespace jscale::jvm {

MutatorThread::MutatorThread(JavaVm &vm, MutatorIndex index,
                             std::unique_ptr<ActionSource> source,
                             std::string name)
    : vm_(vm), index_(index), source_(std::move(source)),
      name_(std::move(name))
{
    jscale_assert(source_ != nullptr, "mutator requires an action source");
}

MutatorThread::~MutatorThread() = default;

void
MutatorThread::bindOsThread(os::OsThread *t)
{
    jscale_assert(os_thread_ == nullptr, "OS thread already bound");
    os_thread_ = t;
}

Ticks
MutatorThread::actionCost(const Action &a) const
{
    const VmCosts &c = vm_.costs();
    Ticks cost = 1;
    switch (a.kind) {
      case Action::Kind::Compute:
        cost = a.ticks;
        break;
      case Action::Kind::Allocate:
        cost = c.alloc_base +
               static_cast<Ticks>(c.alloc_per_byte *
                                  static_cast<double>(a.bytes));
        break;
      case Action::Kind::MonitorEnter:
        cost = c.monitor_enter;
        break;
      case Action::Kind::MonitorExit:
        cost = c.monitor_exit;
        break;
      case Action::Kind::MonitorWait:
      case Action::Kind::MonitorNotify:
        cost = c.channel_op;
        break;
      case Action::Kind::ChannelAcquire:
      case Action::Kind::ChannelPost:
        cost = c.channel_op;
        break;
      case Action::Kind::TaskFetch:
        cost = 1;
        break;
      case Action::Kind::TaskDone:
        cost = c.task_done;
        break;
      case Action::Kind::End:
        cost = c.thread_end;
        break;
    }
    return std::max<Ticks>(cost, 1);
}

void
MutatorThread::consumeAction()
{
    jscale_assert(current_, "consume without action");
    current_ = nullptr;
    remaining_cost_ = 0;
    ++stats_.actions_executed;
}

Ticks
MutatorThread::planBurst(Ticks now, Ticks limit)
{
    (void)now;
    if (kill_pending_)
        return 1; // minimal burst; finishBurst performs the kill
    if (!current_) {
        // Fetch the next action and price it. A contended handoff's
        // coherence penalty lands on the first action executed as the
        // new owner — inside the hold window, where the cache-miss cost
        // belongs.
        jscale_assert(!finished_, "fetch after End");
        current_ = &source_->next();
        remaining_cost_ = actionCost(*current_) + pending_penalty_;
        pending_penalty_ = 0;
    } else if (remaining_cost_ == 0) {
        // Resuming a paid-for action whose effect is pending retry
        // (allocation after GC): charge the slow-path re-entry.
        remaining_cost_ = std::max<Ticks>(vm_.costs().gc_retry, 1);
    }
    return std::min(remaining_cost_, limit);
}

os::BurstOutcome
MutatorThread::executeKill(Ticks now)
{
    jscale_assert(kill_pending_ && !finished_, "stray kill");
    // Release held monitors in reverse acquisition order so queued
    // waiters are handed off instead of wedging behind a dead owner.
    for (auto it = held_ids_.rbegin(); it != held_ids_.rend(); ++it)
        vm_.monitors().monitor(*it).release(this, now);
    held_ids_.clear();
    // An in-flight (non-End) action is an abandoned task: report it so
    // the run accounts for the re-enqueue.
    if (current_ && current_->kind != Action::Kind::End)
        vm_.onTaskAbandoned(index_);
    current_ = nullptr;
    remaining_cost_ = 0;
    kill_pending_ = false;
    killed_ = true;
    finished_ = true;
    vm_.onMutatorFinished(this, now);
    return os::BurstOutcome::Finished;
}

os::BurstOutcome
MutatorThread::finishBurst(Ticks now, Ticks elapsed)
{
    if (kill_pending_)
        return executeKill(now);
    jscale_assert(current_, "burst finished without an action");
    jscale_assert(elapsed <= remaining_cost_, "burst over-ran action cost");
    remaining_cost_ -= elapsed;
    if (remaining_cost_ > 0)
        return os::BurstOutcome::Ready; // preempted mid-action

    // Cost fully paid: apply the action's effect.
    switch (current_->kind) {
      case Action::Kind::Compute:
        consumeAction();
        return os::BurstOutcome::Ready;

      case Action::Kind::Allocate: {
        const AllocStatus status = vm_.heap().allocate(
            index_, current_->bytes, current_->ttl, current_->site, now);
        if (status == AllocStatus::NeedsGc) {
            awaiting_gc_ = true;
            ++stats_.gc_waits;
            vm_.requestGc(this, now);
            return os::BurstOutcome::Blocked; // action retried after GC
        }
        ++stats_.allocations;
        stats_.bytes_allocated += current_->bytes;
        consumeAction();
        return os::BurstOutcome::Ready;
      }

      case Action::Kind::MonitorEnter: {
        Monitor &m = vm_.monitors().monitor(current_->id);
        if (m.acquire(this, now)) {
            held_ids_.push_back(current_->id);
            consumeAction();
            return os::BurstOutcome::Ready;
        }
        awaiting_grant_ = true;
        return os::BurstOutcome::Blocked; // consumed at handoff
      }

      case Action::Kind::MonitorExit:
        dropHeld(current_->id, "exit");
        vm_.monitors().monitor(current_->id).release(this, now);
        consumeAction();
        return os::BurstOutcome::Ready;

      case Action::Kind::MonitorWait: {
        Monitor &m = vm_.monitors().monitor(current_->id);
        dropHeld(current_->id, "wait");
        awaiting_grant_ = true;
        m.waitOn(this, now); // releases; re-grant consumes the action
        return os::BurstOutcome::Blocked;
      }

      case Action::Kind::MonitorNotify: {
        Monitor &m = vm_.monitors().monitor(current_->id);
        m.notify(this, current_->count == 0
                           ? std::numeric_limits<std::uint32_t>::max()
                           : current_->count,
                 now);
        consumeAction();
        return os::BurstOutcome::Ready;
      }

      case Action::Kind::ChannelAcquire: {
        WaitChannel &ch = vm_.monitors().channel(current_->id);
        if (ch.acquire(this, now)) {
            consumeAction();
            return os::BurstOutcome::Ready;
        }
        awaiting_grant_ = true;
        return os::BurstOutcome::Blocked; // consumed at grant
      }

      case Action::Kind::ChannelPost:
        vm_.monitors().channel(current_->id).post(current_->count, now);
        consumeAction();
        return os::BurstOutcome::Ready;

      case Action::Kind::TaskFetch:
        consumeAction();
        if (held_ids_.empty() && !vm_.admitTask(this, now))
            return os::BurstOutcome::Blocked; // admission-parked
        return os::BurstOutcome::Ready;

      case Action::Kind::TaskDone:
        ++stats_.tasks_completed;
        vm_.onTaskCompleted(index_, now);
        consumeAction();
        if (held_ids_.empty() && !vm_.admitTask(this, now))
            return os::BurstOutcome::Blocked; // admission-parked
        return os::BurstOutcome::Ready;

      case Action::Kind::End:
        consumeAction();
        finished_ = true;
        vm_.onMutatorFinished(this, now);
        return os::BurstOutcome::Finished;
    }
    jscale_panic("unreachable action kind");
}

void
MutatorThread::monitorGranted(MonitorId monitor)
{
    jscale_assert(awaiting_grant_ &&
                      (current_->kind == Action::Kind::MonitorEnter ||
                       current_->kind == Action::Kind::MonitorWait) &&
                      current_->id == monitor,
                  "unexpected monitor grant");
    awaiting_grant_ = false;
    held_ids_.push_back(monitor);
    consumeAction();
}

void
MutatorThread::dropHeld(MonitorId monitor, const char *what)
{
    const auto it = std::find(held_ids_.begin(), held_ids_.end(), monitor);
    jscale_assert(it != held_ids_.end(), what, " without holding monitor ",
                  monitor);
    held_ids_.erase(it);
}

void
MutatorThread::channelGranted(ChannelId channel)
{
    jscale_assert(awaiting_grant_ &&
                      current_->kind == Action::Kind::ChannelAcquire &&
                      current_->id == channel,
                  "unexpected channel grant");
    awaiting_grant_ = false;
    consumeAction();
}

void
MutatorThread::gcWaitOver()
{
    jscale_assert(awaiting_gc_, "gcWaitOver without a pending GC wait");
    awaiting_gc_ = false;
    // The pending Allocate action is retried on the next burst;
    // planBurst re-arms the slow-path cost because remaining_cost_ == 0.
}

void
MutatorThread::cancelGcWait()
{
    jscale_assert(awaiting_gc_, "cancelGcWait without a pending GC wait");
    awaiting_gc_ = false;
}

void
MutatorThread::cancelGrantWait()
{
    jscale_assert(awaiting_grant_, "cancelGrantWait without a grant wait");
    awaiting_grant_ = false;
}

} // namespace jscale::jvm
