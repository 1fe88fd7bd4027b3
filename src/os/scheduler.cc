#include "os/scheduler.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "base/logging.hh"

namespace jscale::os {

const char *
threadStateName(ThreadState s)
{
    switch (s) {
      case ThreadState::New: return "new";
      case ThreadState::Ready: return "ready";
      case ThreadState::Running: return "running";
      case ThreadState::Blocked: return "blocked";
      case ThreadState::Sleeping: return "sleeping";
      case ThreadState::Finished: return "finished";
    }
    return "?";
}

/** Per-core event firing at the end of a dispatched burst. */
class Scheduler::SliceEndEvent : public sim::Event
{
  public:
    SliceEndEvent(Scheduler &sched, machine::CoreId core)
        : sched_(sched), core_(core)
    {}

    void process() override { sched_.sliceEnd(core_); }

    std::string
    name() const override
    {
        return "slice-end(core " + std::to_string(core_) + ")";
    }

  private:
    Scheduler &sched_;
    machine::CoreId core_;
};

/** Pooled one-shot event waking a sleeping thread at a set time. */
class Scheduler::TimedWakeEvent : public sim::Event
{
  public:
    explicit TimedWakeEvent(Scheduler &sched) : sched_(sched) {}

    void arm(OsThread *thread) { thread_ = thread; }
    OsThread *thread() const { return thread_; }

    void process() override { sched_.timedWakeFired(this); }
    std::string name() const override { return "timed-wake"; }

  private:
    Scheduler &sched_;
    OsThread *thread_ = nullptr;
};

Scheduler::Scheduler(sim::Simulation &sim, machine::Machine &mach,
                     const SchedulerConfig &config)
    : sim_(sim), mach_(mach), config_(config),
      policy_(std::make_unique<DefaultPolicy>()),
      rng_(sim.forkRng(0x05ced'0001ULL))
{
    jscale_assert(config_.quantum > 0, "quantum must be positive");
    jscale_assert(config_.min_poll_latency >= 1 &&
                      config_.min_poll_latency <= config_.max_poll_latency,
                  "bad safepoint poll latency bounds");
    cores_.resize(mach.cores().size());
    queued_.assign((cores_.size() + 63) / 64, 0);
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        cores_[i].slice_end = std::make_unique<SliceEndEvent>(
            *this, static_cast<machine::CoreId>(i));
    }
}

Scheduler::GroupState &
Scheduler::groupState(std::uint32_t group)
{
    if (group >= groups_.size())
        groups_.resize(group + 1);
    GroupState &g = groups_[group];
    if (!g.parked_event) {
        // One STW per group is in flight at a time, so one reusable
        // zero-delay event per group flattens the parked callback.
        g.parked_event = std::make_unique<sim::CallbackEvent>(
            [this, group] {
                if (groups_[group].callback)
                    groups_[group].callback();
            },
            "stw-parked");
    }
    return g;
}

Scheduler::~Scheduler()
{
    // Deschedule core events so the queue never dispatches into a dead
    // scheduler if the Simulation outlives it.
    for (auto &cs : cores_) {
        if (cs.slice_end && cs.slice_end->scheduled())
            sim_.queue().deschedule(cs.slice_end.get());
    }
    for (auto &ev : wake_events_) {
        if (ev->scheduled())
            sim_.queue().deschedule(ev.get());
    }
    for (auto &g : groups_) {
        if (g.parked_event && g.parked_event->scheduled())
            sim_.queue().deschedule(g.parked_event.get());
    }
}

void
Scheduler::setPolicy(std::unique_ptr<SchedPolicy> policy)
{
    jscale_assert(policy != nullptr, "null scheduling policy");
    policy_ = std::move(policy);
    for (const auto &t : threads_)
        policy_->onRegister(*t);
}

OsThread *
Scheduler::registerThread(SchedClient *client, ThreadKind kind,
                          std::optional<machine::CoreId> home,
                          std::uint32_t group)
{
    jscale_assert(client != nullptr, "null scheduler client");
    const auto &enabled = mach_.enabledCoreIds();
    jscale_assert(!enabled.empty(),
                  "registerThread before any core was enabled");
    machine::CoreId home_core;
    if (home) {
        jscale_assert(mach_.core(*home).enabled(),
                      "home core ", *home, " is not enabled");
        home_core = *home;
    } else {
        home_core = enabled[next_home_rr_ % enabled.size()];
        ++next_home_rr_;
    }
    auto thread = std::make_unique<OsThread>(
        static_cast<ThreadId>(threads_.size()), client, kind, home_core);
    OsThread *ptr = thread.get();
    GroupState &g = groupState(group);
    ptr->group_ = group;
    ptr->local_id_ = g.registered++;
    threads_.push_back(std::move(thread));
    policy_->onRegister(*ptr);
    return ptr;
}

void
Scheduler::start(OsThread *thread)
{
    jscale_assert(thread->state_ == ThreadState::New,
                  "start() on non-new thread '", thread->name(), "'");
    setThreadState(thread, ThreadState::Ready, sim_.now());
    enqueueReady(thread, thread->home_core_);
    if (!allStopped())
        kickAll();
}

void
Scheduler::setThreadState(OsThread *thread, ThreadState next, Ticks now)
{
    const ThreadState prev = thread->state_;
    thread->state_ = next;
    thread->state_since_ = now;
    if (!listeners_.empty()) {
        listeners_.dispatch([&](SchedulerListener &l) {
            l.onThreadState(*thread, prev, now);
        });
    }
}

bool
Scheduler::anyQueued() const
{
    for (const std::uint64_t word : queued_) {
        if (word != 0)
            return true;
    }
    return false;
}

template <typename F>
void
Scheduler::forEachQueued(F &&f) const
{
    // Copy each word first: f may clear the bit it is handed.
    for (std::size_t w = 0; w < queued_.size(); ++w) {
        for (std::uint64_t bits = queued_[w]; bits != 0; bits &= bits - 1) {
            f(static_cast<machine::CoreId>(
                w * 64 + static_cast<std::size_t>(std::countr_zero(bits))));
        }
    }
}

std::size_t
Scheduler::totalReadyQueued() const
{
    std::size_t n = 0;
    forEachQueued([&](machine::CoreId id) { n += cores_[id].ready.size(); });
    return n;
}

void
Scheduler::accountStateExit(OsThread *thread, Ticks now)
{
    const Ticks span = now - thread->state_since_;
    switch (thread->state_) {
      case ThreadState::Ready:
        thread->ready_time_ += span;
        break;
      case ThreadState::Blocked:
        thread->blocked_time_ += span;
        break;
      case ThreadState::Sleeping:
        thread->sleep_time_ += span;
        break;
      default:
        break;
    }
}

void
Scheduler::wake(OsThread *thread)
{
    jscale_assert(thread->state_ == ThreadState::Blocked ||
                      thread->state_ == ThreadState::Sleeping,
                  "wake() on thread '", thread->name(), "' in state ",
                  threadStateName(thread->state_));
    const Ticks now = sim_.now();
    accountStateExit(thread, now);
    setThreadState(thread, ThreadState::Ready, now);
    // Wake to the home core: after a block the home core is the one most
    // likely idle (its owner was the blocked thread), and restoring the
    // 1:1 placement avoids the cross-core drift that work stealing
    // introduces while threads are parked.
    enqueueReady(thread, thread->home_core_);
    if (!allStopped())
        kickAll();
}

void
Scheduler::armTimedWake(OsThread *thread, Ticks when)
{
    TimedWakeEvent *ev;
    if (!wake_free_.empty()) {
        ev = wake_free_.back();
        wake_free_.pop_back();
    } else {
        wake_events_.push_back(std::make_unique<TimedWakeEvent>(*this));
        ev = wake_events_.back().get();
    }
    ev->arm(thread);
    sim_.schedule(ev, when);
}

void
Scheduler::wakeAt(OsThread *thread, Ticks when)
{
    jscale_assert(when >= sim_.now(), "wakeAt in the past");
    // The caller is inside its burst; the Blocked outcome it is about to
    // return is recorded as Sleeping for accounting.
    thread->pending_sleep_ = true;
    armTimedWake(thread, when);
}

void
Scheduler::noteAdmissionPark(OsThread *thread)
{
    jscale_assert(thread->kind() == ThreadKind::Mutator,
                  "admission control parks mutators only");
    ++stats_.admission_parks;
}

void
Scheduler::unparkAdmitted(OsThread *thread)
{
    jscale_assert(stats_.admission_unparks < stats_.admission_parks,
                  "unpark without a matching admission park");
    ++stats_.admission_unparks;
    wake(thread);
}

void
Scheduler::timedWakeFired(TimedWakeEvent *ev)
{
    OsThread *thread = ev->thread();
    wake_free_.push_back(ev);
    // The wake may be stale: the thread could have been woken early
    // (e.g. by a notify) and even be sleeping again under a *newer*
    // timed wake. Waking a Sleeping thread spuriously early here is
    // indistinguishable from the old per-sleep closure behaviour, which
    // also keyed purely off the state.
    if (thread->state_ == ThreadState::Sleeping)
        wake(thread);
}

void
Scheduler::enqueueReady(OsThread *thread, machine::CoreId core_id)
{
    // An offline core (fault injection) accepts no work; redirect to the
    // least-loaded online core so displaced threads keep making progress.
    if (!mach_.core(core_id).enabled())
        core_id = migrationTarget(core_id);
    cores_[core_id].ready.push_back(thread);
    markQueued(core_id);
}

void
Scheduler::checkInvariants() const
{
    jscale_assert(queued_.size() == (cores_.size() + 63) / 64,
                  "occupancy index has ", queued_.size(), " words for ",
                  cores_.size(), " cores");
    for (machine::CoreId id = 0; id < cores_.size(); ++id) {
        const bool bit = ((queued_[id / 64] >> (id % 64)) & 1) != 0;
        const std::size_t depth = cores_[id].ready.size();
        jscale_assert(bit == (depth > 0), "occupancy bit of core ", id,
                      " is ", bit, " but its queue holds ", depth);
        jscale_assert(depth == 0 || mach_.core(id).enabled(),
                      "offline core ", id, " holds ", depth,
                      " queued threads");
    }
    const std::size_t tail = cores_.size() % 64;
    jscale_assert(tail == 0 || (queued_.back() >> tail) == 0,
                  "occupancy bit set past core ", cores_.size() - 1);
}

machine::CoreId
Scheduler::migrationTarget(machine::CoreId from) const
{
    const machine::NodeId socket = mach_.socketOf(from);
    machine::CoreId best_id = 0;
    std::size_t best_len = 0;
    bool best_local = false;
    bool have = false;
    for (const auto id : mach_.enabledCoreIds()) {
        const std::size_t len = cores_[id].ready.size();
        const bool local = mach_.socketOf(id) == socket;
        // Prefer same-socket targets, then shortest queue, lowest id.
        if (!have || (local && !best_local) ||
            (local == best_local && len < best_len)) {
            best_id = id;
            best_len = len;
            best_local = local;
            have = true;
        }
    }
    jscale_assert(have, "no online core to migrate to");
    return best_id;
}

OsThread *
Scheduler::pickFromQueue(machine::CoreId core_id, Ticks now)
{
    std::deque<OsThread *> &queue = cores_[core_id].ready;
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        // A stopped group's threads stay parked in the queue until their
        // tenant's world resumes; other groups schedule around them.
        if (stopped_groups_ > 0 && groups_[(*it)->group_].stopped)
            continue;
        if (policy_->eligible(**it, now) || (*it)->client()->urgent()) {
            OsThread *t = *it;
            // The head is the common pick; pop_front stays inline.
            if (it == queue.begin())
                queue.pop_front();
            else
                queue.erase(it);
            if (queue.empty())
                clearQueued(core_id);
            return t;
        }
    }
    return nullptr;
}

OsThread *
Scheduler::stealFor(machine::CoreId thief, Ticks now)
{
    if (!config_.stealing)
        return nullptr;
    // Deterministic victim selection, NUMA-aware: same-socket victims
    // are preferred; remote sockets are raided only for real imbalance
    // (two or more queued threads), since cross-socket migration is
    // expensive and would otherwise poison hot lock-handoff chains.
    // Only loaded queues are visited, in ascending core id order.
    const machine::NodeId my_socket = mach_.socketOf(thief);
    machine::CoreId victim = thief;
    std::size_t best = 0;
    bool best_local = false;
    forEachQueued([&](machine::CoreId id) {
        if (id == thief || !mach_.core(id).enabled())
            return;
        const std::size_t len = cores_[id].ready.size();
        const bool local = mach_.socketOf(id) == my_socket;
        if (!local && len < 2)
            return;
        // Local victims beat remote ones; then longest queue, lowest id.
        if ((local && !best_local) ||
            (local == best_local && len > best)) {
            best = len;
            victim = id;
            best_local = local;
        }
    });
    if (best == 0)
        return nullptr;
    OsThread *t = pickFromQueue(victim, now);
    if (t)
        ++stats_.steals;
    return t;
}

void
Scheduler::maybeDispatch(machine::CoreId core_id)
{
    CoreState &cs = cores_[core_id];
    if (allStopped() || cs.running || !mach_.core(core_id).enabled())
        return;
    const Ticks now = sim_.now();
    OsThread *thread = pickFromQueue(core_id, now);
    bool stolen = false;
    if (!thread) {
        thread = stealFor(core_id, now);
        stolen = thread != nullptr;
    }
    if (!thread)
        return;
    dispatch(core_id, thread, stolen);
}

void
Scheduler::dispatch(machine::CoreId core_id, OsThread *thread, bool stolen)
{
    CoreState &cs = cores_[core_id];
    const Ticks now = sim_.now();
    jscale_assert(thread->state_ == ThreadState::Ready,
                  "dispatching thread in state ",
                  threadStateName(thread->state_));
    accountStateExit(thread, now);

    Ticks overhead = 0;
    if (cs.last_thread != thread) {
        overhead += mach_.config().context_switch_cost;
        ++stats_.context_switches;
    }
    const machine::CoreId prev_core = thread->last_core_;
    const bool migrated =
        thread->ever_ran_ &&
        mach_.socketOf(prev_core) != mach_.socketOf(core_id);
    if (migrated) {
        overhead += mach_.config().migration_cost;
        ++thread->migrations_;
        ++stats_.migrations;
    }

    setThreadState(thread, ThreadState::Running, now);
    thread->last_core_ = core_id;
    thread->ever_ran_ = true;
    ++thread->dispatches_;
    ++stats_.dispatches;
    if (!listeners_.empty()) {
        listeners_.dispatch([&](SchedulerListener &l) {
            if (migrated)
                l.onMigrate(*thread, prev_core, core_id, now);
            l.onDispatch(*thread, core_id, overhead, stolen, now);
        });
    }

    const Ticks planned = thread->client_->planBurst(now, config_.quantum);
    jscale_assert(planned > 0 && planned <= config_.quantum,
                  "planBurst of '", thread->name(),
                  "' returned out-of-range length ", planned);

    cs.running = thread;
    cs.last_thread = thread;
    cs.dispatched_at = now;
    cs.overhead = overhead;
    cs.planned = planned;
    // A throttled core (fault injection) stretches the burst in wall
    // time; sliceEnd converts elapsed wall time back to logical work.
    // The factor is captured here so a mid-burst recovery never bends a
    // burst already in flight.
    cs.speed = mach_.core(core_id).speedFactor();
    Ticks wall = planned;
    if (cs.speed < 1.0) {
        wall = static_cast<Ticks>(std::llround(
            static_cast<double>(planned) / cs.speed));
        wall = std::max(wall, planned);
    }
    ++running_count_;
    ++groups_[thread->group_].running;
    sim_.schedule(cs.slice_end.get(), now + overhead + wall);

    // A stop-the-world request may have raced in via the policy kick
    // path; keep the invariant that no dispatch happens while the
    // thread's own group is stopped.
    jscale_assert(!groups_[thread->group_].stopped,
                  "dispatch during stop-the-world");
}

void
Scheduler::sliceEnd(machine::CoreId core_id)
{
    CoreState &cs = cores_[core_id];
    OsThread *thread = cs.running;
    jscale_assert(thread != nullptr, "slice end on idle core ", core_id);
    const Ticks now = sim_.now();
    const Ticks elapsed_total = now - cs.dispatched_at;
    Ticks work = elapsed_total > cs.overhead
                     ? elapsed_total - cs.overhead
                     : 0;
    if (cs.speed < 1.0) {
        // Throttled core: wall time elapsed covers less logical work.
        work = std::min<Ticks>(
            cs.planned,
            static_cast<Ticks>(std::llround(
                static_cast<double>(work) * cs.speed)));
    } else {
        jscale_assert(work <= cs.planned, "burst overran its plan");
    }

    cs.running = nullptr;
    --running_count_;
    --groups_[thread->group_].running;
    thread->cpu_time_ += work;
    stats_.busy_ticks += elapsed_total;
    stats_.overhead_ticks += std::min(cs.overhead, elapsed_total);
    const bool preempted = work < cs.planned;
    if (preempted)
        ++stats_.preemptions;
    if (!listeners_.empty()) {
        listeners_.dispatch([&](SchedulerListener &l) {
            l.onBurstEnd(*thread, core_id, cs.dispatched_at, preempted,
                         now);
        });
    }

    // finishBurst may reenter the scheduler (wake peers, request a
    // stop-the-world); core state must already be consistent.
    const BurstOutcome outcome = thread->client_->finishBurst(now, work);

    switch (outcome) {
      case BurstOutcome::Ready:
        if (thread->forced_sleep_until_ > now) {
            // Forced stall (fault injection): hold the thread off-core
            // as if the host OS had descheduled it.
            setThreadState(thread, ThreadState::Sleeping, now);
            armTimedWake(thread, thread->forced_sleep_until_);
            ++stats_.forced_stalls;
        } else {
            setThreadState(thread, ThreadState::Ready, now);
            enqueueReady(thread, core_id);
        }
        thread->forced_sleep_until_ = 0;
        break;
      case BurstOutcome::Blocked:
        setThreadState(thread,
                       thread->pending_sleep_ ? ThreadState::Sleeping
                                              : ThreadState::Blocked,
                       now);
        thread->pending_sleep_ = false;
        thread->forced_sleep_until_ = 0;
        break;
      case BurstOutcome::Finished:
        setThreadState(thread, ThreadState::Finished, now);
        thread->forced_sleep_until_ = 0;
        ++finished_count_;
        if (finished_cb_)
            finished_cb_(thread);
        break;
    }

    if (stopped_groups_ > 0)
        maybeFireStwCallback(thread->group_);
    if (!allStopped())
        maybeDispatch(core_id);
}

void
Scheduler::stopTheWorld(std::uint32_t group,
                        std::function<void()> all_parked)
{
    GroupState &g = groupState(group);
    jscale_assert(!g.stopped, "nested stop-the-world for group ", group);
    g.stopped = true;
    g.callback = std::move(all_parked);
    g.cb_pending = true;
    ++stopped_groups_;

    const Ticks now = sim_.now();
    if (!listeners_.empty()) {
        listeners_.dispatch([&](SchedulerListener &l) {
            l.onWorldStopRequested(group, now);
        });
    }
    for (const auto id : mach_.enabledCoreIds()) {
        if (cores_[id].running && cores_[id].running->group_ == group)
            truncateAtPoll(id);
    }
    maybeFireStwCallback(group);
}

void
Scheduler::truncateAtPoll(machine::CoreId core_id)
{
    CoreState &cs = cores_[core_id];
    jscale_assert(cs.running != nullptr,
                  "truncateAtPoll on idle core ", core_id);
    // Truncate the running burst at its next safepoint poll.
    const Ticks poll = sim_.now() + static_cast<Ticks>(rng_.range(
        static_cast<std::int64_t>(config_.min_poll_latency),
        static_cast<std::int64_t>(config_.max_poll_latency)));
    if (cs.slice_end->scheduled() && cs.slice_end->when() > poll)
        sim_.queue().reschedule(cs.slice_end.get(), poll);
}

bool
Scheduler::setCoreOnline(machine::CoreId core_id, bool online)
{
    CoreState &cs = cores_[core_id];
    if (online) {
        if (!mach_.setCoreOnline(core_id, true))
            return false;
        ++stats_.core_onlines;
        // Queued threads whose home is this core flow back naturally at
        // their next wake; kick so an idle comeback core can steal work
        // or dispatch immediately.
        kickAll();
        return true;
    }
    if (!mach_.setCoreOnline(core_id, false))
        return false; // last online core: fault skipped
    ++stats_.core_offlines;
    // Migrate the ready queue FIFO-intact so displaced threads are
    // re-admitted in their original order.
    if (!cs.ready.empty()) {
        const machine::CoreId target = migrationTarget(core_id);
        stats_.displaced_threads += cs.ready.size();
        auto &dst = cores_[target].ready;
        dst.insert(dst.end(), cs.ready.begin(), cs.ready.end());
        cs.ready.clear();
        clearQueued(core_id);
        markQueued(target);
    }
    // The running burst (if any) is truncated at its next poll; the
    // sliceEnd re-enqueue then redirects away from the offline core.
    if (cs.running)
        truncateAtPoll(core_id);
    if (!allStopped())
        kickAll();
    return true;
}

void
Scheduler::setCoreSpeed(machine::CoreId core_id, double factor)
{
    jscale_assert(factor > 0.0 && factor <= 1.0,
                  "core speed factor must be in (0, 1], got ", factor);
    mach_.core(core_id).setSpeedFactor(factor);
}

std::uint32_t
Scheduler::preemptLockHolders(Ticks hold_for)
{
    const Ticks now = sim_.now();
    std::uint32_t hit = 0;
    for (const auto id : mach_.enabledCoreIds()) {
        CoreState &cs = cores_[id];
        if (!cs.running || !cs.running->client()->urgent())
            continue;
        cs.running->forced_sleep_until_ = now + hold_for;
        truncateAtPoll(id);
        ++stats_.forced_preemptions;
        ++hit;
    }
    return hit;
}

void
Scheduler::stallThread(OsThread *thread, Ticks until)
{
    const Ticks now = sim_.now();
    if (until <= now)
        return;
    switch (thread->state_) {
      case ThreadState::Running: {
        thread->forced_sleep_until_ = until;
        const machine::CoreId core_id = thread->last_core_;
        if (cores_[core_id].running == thread)
            truncateAtPoll(core_id);
        break;
      }
      case ThreadState::Ready: {
        // Pull the thread out of whichever run queue holds it.
        forEachQueued([&](machine::CoreId id) {
            auto &queue = cores_[id].ready;
            auto it = std::find(queue.begin(), queue.end(), thread);
            if (it == queue.end())
                return;
            queue.erase(it);
            if (queue.empty())
                clearQueued(id);
        });
        accountStateExit(thread, now);
        setThreadState(thread, ThreadState::Sleeping, now);
        armTimedWake(thread, until);
        ++stats_.forced_stalls;
        break;
      }
      default:
        // Blocked/Sleeping/New/Finished threads are already off-core.
        break;
    }
}

void
Scheduler::maybeFireStwCallback(std::uint32_t group)
{
    GroupState &g = groups_[group];
    if (!g.cb_pending || g.running > 0)
        return;
    g.cb_pending = false;
    // Flatten the call stack: fire as a zero-delay event. One STW per
    // group is in flight at a time, so the group's reusable event is
    // never pending here (schedule() asserts that invariant).
    sim_.scheduleIn(g.parked_event.get(), 0);
}

void
Scheduler::resumeWorld(std::uint32_t group)
{
    jscale_assert(group < groups_.size() && groups_[group].stopped,
                  "resumeWorld without stopTheWorld");
    GroupState &g = groups_[group];
    jscale_assert(g.running == 0, "resumeWorld with running threads");
    g.stopped = false;
    g.callback = nullptr;
    --stopped_groups_;
    if (!listeners_.empty()) {
        const Ticks now = sim_.now();
        listeners_.dispatch([&](SchedulerListener &l) {
            l.onWorldResumed(group, now);
        });
    }
    kickAll();
}

void
Scheduler::kickAll()
{
    for (const auto id : mach_.enabledCoreIds()) {
        // With every queue empty no core can pick or steal anything.
        if (!anyQueued())
            return;
        maybeDispatch(id);
    }
}

} // namespace jscale::os
