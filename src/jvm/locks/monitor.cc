#include "jvm/locks/monitor.hh"

#include <algorithm>

#include "base/logging.hh"
#include "os/scheduler.hh"

namespace jscale::jvm {

Monitor::Monitor(MonitorId id, std::string name, os::Scheduler &sched,
                 const ListenerChain *listeners, MonitorTable *table,
                 const LockPolicyConfig &policy_cfg)
    : id_(id), name_(std::move(name)), sched_(sched),
      listeners_(listeners), table_(table), cfg_(policy_cfg),
      policy_(makeAdmissionPolicy(cfg_, this)),
      recent_owners_(cfg_.circulation_window, kNoOwner)
{
}

void
Monitor::waiterPassivated(MonitorWaiter *w, Ticks now)
{
    ++stats_.waiters_passivated;
    if (listeners_) {
        listeners_->dispatch([&](RuntimeListener &l) {
            l.onMonitorWaiterPassivated(w->mutatorIndex(), id_, now);
        });
    }
}

void
Monitor::waiterReactivated(MonitorWaiter *w, Ticks now)
{
    ++stats_.waiters_reactivated;
    if (listeners_) {
        listeners_->dispatch([&](RuntimeListener &l) {
            l.onMonitorWaiterReactivated(w->mutatorIndex(), id_, now);
        });
    }
}

Ticks
Monitor::handoffPenalty(const MonitorWaiter *waiter)
{
    const MutatorIndex grantee = waiter->mutatorIndex();
    if (grantee >= owner_counts_.size())
        owner_counts_.resize(grantee + 1, 0);
    // Distinct *other* recent owners before this grant joins the window.
    const std::uint32_t distinct_others =
        distinct_owners_ - (owner_counts_[grantee] > 0 ? 1 : 0);
    const Ticks penalty =
        cfg_.handoff_base +
        cfg_.coherence_cost * static_cast<Ticks>(distinct_others);
    // Slide the circulation window forward over this grant: it takes
    // the oldest slot.
    if (!recent_owners_.empty()) {
        if (owner_counts_[grantee]++ == 0)
            ++distinct_owners_;
        MutatorIndex &slot = recent_owners_[recent_next_];
        if (slot != kNoOwner && --owner_counts_[slot] == 0)
            --distinct_owners_;
        slot = grantee;
        recent_next_ = (recent_next_ + 1) % recent_owners_.size();
    }
    stats_.circulation_sum += distinct_owners_;
    stats_.coherence_penalty += penalty;
    return penalty;
}

void
Monitor::grant(MonitorWaiter *waiter, Ticks now, bool contended)
{
    owner_ = waiter;
    acquired_at_ = now;
    ++stats_.acquisitions;
    if (listeners_) {
        listeners_->dispatch([&](RuntimeListener &l) {
            l.onMonitorAcquire(waiter->mutatorIndex(), id_, contended, now);
        });
    }
}

void
Monitor::enqueueContended(MonitorWaiter *waiter, Ticks now)
{
    ++stats_.contentions;
    policy_->enqueue(waiter, now);
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth,
                 static_cast<std::uint32_t>(policy_->depth()));
    if (listeners_) {
        listeners_->dispatch([&](RuntimeListener &l) {
            l.onMonitorContended(waiter->mutatorIndex(), id_, now);
        });
    }
    if (table_)
        table_->onBlocked(waiter, id_);
}

bool
Monitor::acquire(MonitorWaiter *waiter, Ticks now)
{
    jscale_assert(waiter != nullptr, "null waiter");
    jscale_assert(owner_ != waiter,
                  "recursive acquire of monitor '", name_, "'");
    if (owner_ == nullptr) {
        // Uncontended path: advance the HotSpot lock-state machine.
        switch (state_) {
          case LockState::Neutral:
            state_ = LockState::Biased;
            bias_holder_ = waiter;
            ++stats_.biased_acquisitions;
            break;
          case LockState::Biased:
            if (bias_holder_ == waiter) {
                ++stats_.biased_acquisitions;
            } else {
                // A second thread revokes the bias; thin from now on.
                ++stats_.bias_revocations;
                state_ = LockState::Thin;
                bias_holder_ = nullptr;
                ++stats_.thin_acquisitions;
            }
            break;
          case LockState::Thin:
            ++stats_.thin_acquisitions;
            break;
          case LockState::Fat:
            ++stats_.fat_acquisitions;
            break;
        }
        grant(waiter, now, false);
        return true;
    }
    // Contended slow path: the lock inflates to a fat monitor (where it
    // stays), then the waiter queues with the admission policy.
    if (state_ != LockState::Fat) {
        state_ = LockState::Fat;
        bias_holder_ = nullptr;
        ++stats_.inflations;
    }
    enqueueContended(waiter, now);
    return false;
}

void
Monitor::releaseInternal(MonitorWaiter *waiter, Ticks now)
{
    const Ticks hold = now - acquired_at_;
    stats_.total_hold_time += hold;
    owner_ = nullptr;
    policy_->noteRelease(waiter, now, hold);
    if (listeners_) {
        listeners_->dispatch([&](RuntimeListener &l) {
            l.onMonitorRelease(waiter->mutatorIndex(), id_, now);
        });
    }
    if (policy_->empty())
        return;
    // Direct handoff to the policy's chosen waiter. Any passivation /
    // reactivation the policy performs fires through the Events
    // adapter (and the listener chain) before the grant itself.
    const AdmissionPolicy::Grant next = policy_->selectNext(now);
    stats_.total_block_time += now - next.since;
    stats_.block_hist.add(now - next.since);
    ++stats_.fat_acquisitions; // handoff happens on the inflated path
    ++stats_.handoffs;
    if (next.bypassed_head)
        ++stats_.barged_grants;
    const Ticks penalty = handoffPenalty(next.waiter);
    if (table_)
        table_->onGranted(next.waiter);
    grant(next.waiter, now, true);
    if (penalty > 0)
        next.waiter->chargeHandoffPenalty(penalty);
    next.waiter->monitorGranted(id_);
    sched_.wake(next.waiter->osThread());
}

void
Monitor::release(MonitorWaiter *waiter, Ticks now)
{
    jscale_assert(owner_ == waiter, "release of monitor '", name_,
                  "' by non-owner");
    releaseInternal(waiter, now);
}

void
Monitor::waitOn(MonitorWaiter *waiter, Ticks now)
{
    jscale_assert(owner_ == waiter, "wait() on monitor '", name_,
                  "' by non-owner (IllegalMonitorState)");
    ++stats_.waits;
    // Waiting on a monitor requires the inflated form, as in HotSpot.
    if (state_ != LockState::Fat) {
        state_ = LockState::Fat;
        bias_holder_ = nullptr;
        ++stats_.inflations;
    }
    waitset_.push_back(waiter);
    if (listeners_) {
        listeners_->dispatch([&](RuntimeListener &l) {
            l.onMonitorWaitParked(waiter->mutatorIndex(), id_, now);
        });
    }
    releaseInternal(waiter, now);
}

void
Monitor::notify(MonitorWaiter *waiter, std::uint32_t count, Ticks now)
{
    jscale_assert(owner_ == waiter, "notify() on monitor '", name_,
                  "' by non-owner (IllegalMonitorState)");
    ++stats_.notifies;
    while (count > 0 && !waitset_.empty()) {
        MonitorWaiter *w = waitset_.front();
        waitset_.pop_front();
        --count;
        // The notified thread re-contends for the monitor: it joins the
        // acquire queue and is granted at a future release.
        enqueueContended(w, now);
    }
}

bool
Monitor::cancelWaiter(MonitorWaiter *waiter, Ticks now)
{
    bool removed = false;
    if (policy_->cancel(waiter)) {
        removed = true;
        if (listeners_) {
            listeners_->dispatch([&](RuntimeListener &l) {
                l.onMonitorWaiterCancelled(waiter->mutatorIndex(),
                                           id_, now);
            });
        }
    }
    for (auto it = waitset_.begin(); it != waitset_.end();) {
        if (*it == waiter) {
            it = waitset_.erase(it);
            removed = true;
        } else {
            ++it;
        }
    }
    return removed;
}

WaitChannel::WaitChannel(ChannelId id, std::string name,
                         std::uint64_t permits, os::Scheduler &sched,
                         const ListenerChain *listeners)
    : id_(id), name_(std::move(name)), sched_(sched),
      listeners_(listeners), permits_(permits)
{
}

bool
WaitChannel::acquire(MonitorWaiter *waiter, Ticks now)
{
    if (permits_ > 0) {
        --permits_;
        return true;
    }
    queue_.push_back(waiter);
    if (listeners_) {
        listeners_->dispatch([&](RuntimeListener &l) {
            l.onChannelBlocked(waiter->mutatorIndex(), id_, now);
        });
    }
    return false;
}

void
WaitChannel::post(std::uint64_t n, Ticks now)
{
    (void)now;
    while (n > 0 && !queue_.empty()) {
        MonitorWaiter *w = queue_.front();
        queue_.pop_front();
        --n;
        w->channelGranted(id_);
        sched_.wake(w->osThread());
    }
    permits_ += n;
}

bool
WaitChannel::cancelWaiter(MonitorWaiter *waiter)
{
    bool removed = false;
    for (auto it = queue_.begin(); it != queue_.end();) {
        if (*it == waiter) {
            it = queue_.erase(it);
            removed = true;
        } else {
            ++it;
        }
    }
    return removed;
}

bool
MonitorTable::cancelWaiter(MonitorWaiter *waiter, Ticks now)
{
    bool removed = false;
    for (const auto &m : monitors_)
        removed = m->cancelWaiter(waiter, now) || removed;
    for (const auto &ch : channels_)
        removed = ch->cancelWaiter(waiter) || removed;
    onGranted(waiter);
    return removed;
}

MonitorId
MonitorTable::createMonitor(const std::string &name)
{
    const auto id = static_cast<MonitorId>(monitors_.size());
    monitors_.push_back(std::make_unique<Monitor>(
        id, name, sched_, listeners_, this, policy_cfg_));
    return id;
}

template <typename F>
bool
MonitorTable::walkWaitFor(MutatorIndex self, F &&edge) const
{
    MutatorIndex cur = self;
    for (std::size_t depth = 0; depth <= monitors_.size(); ++depth) {
        if (cur >= blocked_on_.size() || blocked_on_[cur] == kNotBlocked)
            return false; // cur is runnable: no cycle through here
        const Monitor &m = *monitors_[blocked_on_[cur]];
        if (m.owner() == nullptr)
            return false; // lock in handoff; will drain
        cur = m.owner()->mutatorIndex();
        edge(m, cur);
        if (cur == self)
            return true;
    }
    return false;
}

void
MonitorTable::onBlocked(MonitorWaiter *waiter, MonitorId monitor)
{
    const MutatorIndex self = waiter->mutatorIndex();
    if (self >= blocked_on_.size())
        blocked_on_.resize(self + 1, kNotBlocked);
    blocked_on_[self] = monitor;
    // Walk the wait-for graph: waiter -> monitor -> owner -> (monitor
    // that owner blocks on) -> ... A return to the starting thread is a
    // deadlock; only then walk again to report the whole cycle.
    if (!walkWaitFor(self, [](const Monitor &, MutatorIndex) {}))
        return;
    std::string chain = "thread " + std::to_string(self);
    walkWaitFor(self, [&](const Monitor &m, MutatorIndex owner) {
        chain += " -> [" + m.name() + "] -> thread " +
                 std::to_string(owner);
    });
    jscale_panic("monitor deadlock detected: ", chain);
}

void
MonitorTable::onGranted(MonitorWaiter *waiter)
{
    const MutatorIndex self = waiter->mutatorIndex();
    if (self < blocked_on_.size())
        blocked_on_[self] = kNotBlocked;
}

ChannelId
MonitorTable::createChannel(const std::string &name, std::uint64_t permits)
{
    const auto id = static_cast<ChannelId>(channels_.size());
    channels_.push_back(std::make_unique<WaitChannel>(
        id, name, permits, sched_, listeners_));
    return id;
}

Monitor &
MonitorTable::monitor(MonitorId id)
{
    jscale_assert(id < monitors_.size(), "monitor id out of range");
    return *monitors_[id];
}

const Monitor &
MonitorTable::monitor(MonitorId id) const
{
    jscale_assert(id < monitors_.size(), "monitor id out of range");
    return *monitors_[id];
}

WaitChannel &
MonitorTable::channel(ChannelId id)
{
    jscale_assert(id < channels_.size(), "channel id out of range");
    return *channels_[id];
}

std::uint64_t
MonitorTable::totalAcquisitions() const
{
    std::uint64_t total = 0;
    for (const auto &m : monitors_)
        total += m->monStats().acquisitions;
    return total;
}

std::uint64_t
MonitorTable::totalContentions() const
{
    std::uint64_t total = 0;
    for (const auto &m : monitors_)
        total += m->monStats().contentions;
    return total;
}

Ticks
MonitorTable::totalBlockTime() const
{
    Ticks total = 0;
    for (const auto &m : monitors_)
        total += m->monStats().total_block_time;
    return total;
}

std::size_t
MonitorTable::totalQueuedWaiters() const
{
    std::size_t total = 0;
    for (const auto &m : monitors_)
        total += m->queueDepth();
    return total;
}

MonitorStats
MonitorTable::aggregateStats() const
{
    MonitorStats agg;
    for (const auto &m : monitors_) {
        const MonitorStats &s = m->monStats();
        agg.acquisitions += s.acquisitions;
        agg.contentions += s.contentions;
        agg.total_hold_time += s.total_hold_time;
        agg.total_block_time += s.total_block_time;
        agg.max_queue_depth =
            std::max(agg.max_queue_depth, s.max_queue_depth);
        agg.biased_acquisitions += s.biased_acquisitions;
        agg.thin_acquisitions += s.thin_acquisitions;
        agg.fat_acquisitions += s.fat_acquisitions;
        agg.bias_revocations += s.bias_revocations;
        agg.inflations += s.inflations;
        agg.waits += s.waits;
        agg.notifies += s.notifies;
        agg.handoffs += s.handoffs;
        agg.barged_grants += s.barged_grants;
        agg.waiters_passivated += s.waiters_passivated;
        agg.waiters_reactivated += s.waiters_reactivated;
        agg.coherence_penalty += s.coherence_penalty;
        agg.circulation_sum += s.circulation_sum;
        agg.block_hist.merge(s.block_hist);
    }
    return agg;
}

} // namespace jscale::jvm
