#include "check/oracle.hh"

#include <sstream>

#include "base/logging.hh"
#include "jvm/runtime/vm.hh"
#include "os/policy.hh"
#include "os/scheduler.hh"
#include "profile/profiler.hh"

namespace jscale::check {

std::string
InvariantViolation::format() const
{
    std::ostringstream os;
    os << oracle << ": " << message << " (at " << formatTicks(at) << ")";
    return os.str();
}

OracleSuite::OracleSuite(OracleConfig config) : config_(config)
{
    live_.reserve(4096);
}

OracleSuite::~OracleSuite()
{
    detach();
}

void
OracleSuite::attach(jvm::JavaVm &vm, profile::TaskProfiler &profiler)
{
    jscale_assert(!attached_, "OracleSuite attached twice");
    vm_ = &vm;
    sched_ = &vm.scheduler();
    group_ = vm.config().tenant;
    locks_ = vm.config().locks;

    // Self-configure gates the run's configuration makes unsound:
    // TLAB reservation reclaims more than the dead-object bytes, and
    // phase-gated or stealing-free scheduling legitimately leaves
    // runnable threads waiting arbitrarily long.
    reclaim_accounting_ = vm.config().heap.tlab_size == 0;
    const os::Scheduler &s = vm.scheduler();
    if (std::string(s.policy().policyName()) != "default" ||
        !s.config().stealing) {
        config_.starvation = false;
    }

    vm.listeners().add(this);
    vm.scheduler().listeners().add(this);

    // The latency-conservation oracle rides the VM's attribution
    // profiler: the sink reconciles each task's bucket sum against the
    // task's wall time, both in integer simulation ticks.
    profiler.addTaskSink([this](const jvm::SlowTaskRecord &rec) {
        ++checks_;
        Ticks sum = 0;
        for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
            sum += rec.buckets[i];
        if (sum != rec.wall()) {
            std::ostringstream os;
            os << "task " << rec.task << " (thread " << rec.thread
               << "): buckets sum to " << formatTicks(sum)
               << " but wall time is " << formatTicks(rec.wall());
            report("latency-conservation", os.str(), rec.end);
        }
        // Open-loop service-window alignment: when the thread is
        // serving a dispatched request, the window just closed must
        // open exactly at the dispatch stamp — that alignment is
        // what makes sojourn == queueing + attributed buckets.
        ServingModel &sv = servingModel(rec.thread);
        if (sv.active) {
            ++checks_;
            if (rec.start != sv.dispatch) {
                std::ostringstream os;
                os << "request " << sv.request << " (thread "
                   << rec.thread << "): service window opens at "
                   << formatTicks(rec.start)
                   << " but the request was dispatched at "
                   << formatTicks(sv.dispatch);
                report("request-conservation", os.str(),
                       rec.end);
            }
            sv.window_seen = true;
            sv.window_end = rec.end;
            settleServing(rec.thread, rec.end);
        }
    });
    attached_ = true;
}

void
OracleSuite::detach()
{
    if (!attached_)
        return;
    vm_->listeners().remove(this);
    vm_->scheduler().listeners().remove(this);
    attached_ = false;
}

void
OracleSuite::report(const char *oracle, std::string message, Ticks now)
{
    InvariantViolation v;
    v.oracle = oracle;
    v.message = std::move(message);
    v.at = now;
    ++violation_count_;
    if (violations_.size() < config_.max_violations)
        violations_.push_back(v);
    if (config_.throw_on_violation)
        throw OracleError(v);
}

void
OracleSuite::observeTime(Ticks now)
{
    ++checks_;
    if (now < last_now_) {
        std::ostringstream os;
        os << "time ran backwards: event at " << formatTicks(now)
           << " after " << formatTicks(last_now_);
        report("event-ordering", os.str(), now);
    }
    if (now > last_now_)
        last_now_ = now;
}

Ticks
OracleSuite::stoppedTicks(Ticks now) const
{
    return stopped_accum_ + (world_stopped_ ? now - stop_began_ : 0);
}

Ticks
OracleSuite::starvationLimit() const
{
    if (sched_ == nullptr)
        return config_.starvation_grace;
    const Ticks quantum = sched_->config().quantum;
    const std::uint64_t threads = max_thread_id_ + 1;
    const std::uint64_t cores =
        std::max<std::uint64_t>(1, sched_->onlineCores());
    // Round-robin FIFO dispatch bounds a ready wait by roughly one
    // quantum per thread sharing the core; 4x slack absorbs migration
    // overheads, urgent-lock-holder priority and fault-window churn.
    return config_.starvation_grace +
           4 * quantum * (1 + (threads + cores - 1) / cores);
}

void
OracleSuite::checkReadyWait(std::size_t idx, Ticks now, bool at_dispatch)
{
    if (!config_.starvation)
        return;
    ThreadModel &m = threads_[idx];
    ++checks_;
    const Ticks stopped = stoppedTicks(now) - m.stop_credit;
    const Ticks gross = now - m.ready_since;
    const Ticks wait = gross > stopped ? gross - stopped : 0;
    const Ticks limit = starvationLimit();
    if (wait > limit) {
        std::ostringstream os;
        os << "thread " << idx << " runnable for " << formatTicks(wait)
           << " (limit " << formatTicks(limit) << ") "
           << (at_dispatch ? "before being dispatched"
                           : "and still waiting at run end")
           << " — work conservation violated";
        report("sched-conservation", os.str(), now);
    }
}

OracleSuite::MonitorModel &
OracleSuite::monitorModel(jvm::MonitorId id)
{
    if (monitors_.size() <= id)
        monitors_.resize(id + 1);
    return monitors_[id];
}

OracleSuite::ThreadModel &
OracleSuite::threadModel(std::size_t id)
{
    if (threads_.size() <= id)
        threads_.resize(id + 1);
    if (id > max_thread_id_)
        max_thread_id_ = id;
    return threads_[id];
}

OracleSuite::CoreModel &
OracleSuite::coreModel(std::size_t id)
{
    if (cores_.size() <= id)
        cores_.resize(id + 1);
    return cores_[id];
}

OracleSuite::ServingModel &
OracleSuite::servingModel(jvm::MutatorIndex thread)
{
    if (serving_.size() <= thread)
        serving_.resize(thread + 1);
    return serving_[thread];
}

void
OracleSuite::settleServing(jvm::MutatorIndex thread, Ticks now)
{
    ServingModel &sv = serving_[thread];
    if (!sv.active || !sv.window_seen || !sv.completed)
        return;
    ++checks_;
    if (sv.window_end != sv.completion) {
        std::ostringstream os;
        os << "request " << sv.request << " (thread " << thread
           << "): service window closes at "
           << formatTicks(sv.window_end)
           << " but the completion was stamped at "
           << formatTicks(sv.completion);
        report("request-conservation", os.str(), now);
    }
    sv = ServingModel{};
}

// ---------------------------------------------------------------------
// Heap conservation + lifespan monotonicity
// ---------------------------------------------------------------------

void
OracleSuite::onObjectAlloc(const jvm::ObjectRecord &obj, Ticks now)
{
    observeTime(now);
    if (at_safepoint_) {
        std::ostringstream os;
        os << "object " << obj.id << " allocated by thread " << obj.owner
           << " inside a stop-the-world window";
        report("event-ordering", os.str(), now);
    }
    ++checks_;
    if (!live_.emplace(obj.id, obj.size).second) {
        std::ostringstream os;
        os << "object " << obj.id << " (owner thread " << obj.owner
           << ") allocated twice";
        report("heap-conservation", os.str(), now);
        return;
    }
    model_live_bytes_ += obj.size;
    if (vm_ != nullptr && vm_->heap().liveBytes() != model_live_bytes_) {
        std::ostringstream os;
        os << "live-byte ledger mismatch after alloc of object " << obj.id
           << ": heap reports " << vm_->heap().liveBytes()
           << " B, event ledger " << model_live_bytes_ << " B";
        report("heap-conservation", os.str(), now);
    }
}

void
OracleSuite::onObjectDeath(const jvm::ObjectRecord &obj, Bytes lifespan,
                           Ticks now)
{
    observeTime(now);
    ++checks_;
    auto it = live_.find(obj.id);
    if (it == live_.end()) {
        std::ostringstream os;
        os << "death of object " << obj.id << " (owner thread "
           << obj.owner << ") that is not live "
           << "(double death or unobserved birth)";
        report("heap-conservation", os.str(), now);
    } else {
        if (it->second != obj.size) {
            std::ostringstream os;
            os << "object " << obj.id << " died with size "
               << obj.size << " B but was born with " << it->second
               << " B";
            report("heap-conservation", os.str(), now);
        }
        model_live_bytes_ -= it->second;
        live_.erase(it);
        pending_dead_bytes_ += obj.size;
        if (vm_ != nullptr &&
            vm_->heap().liveBytes() != model_live_bytes_) {
            std::ostringstream os;
            os << "live-byte ledger mismatch after death of object "
               << obj.id << ": heap reports "
               << vm_->heap().liveBytes() << " B, event ledger "
               << model_live_bytes_ << " B";
            report("heap-conservation", os.str(), now);
        }
    }
    ++checks_;
    const Bytes clock = obj.birth_global_bytes + lifespan;
    if (death_clock_.size() <= obj.owner)
        death_clock_.resize(obj.owner + 1, 0);
    if (clock < death_clock_[obj.owner]) {
        std::ostringstream os;
        os << "lifespan clock of owner thread " << obj.owner
           << " ran backwards: object " << obj.id << " died at "
           << clock << " allocated-bytes, after a death at "
           << death_clock_[obj.owner];
        report("lifespan-monotonic", os.str(), now);
    } else {
        death_clock_[obj.owner] = clock;
    }
    if (vm_ != nullptr &&
        clock > vm_->heap().globalAllocatedBytes()) {
        std::ostringstream os;
        os << "object " << obj.id << " died at " << clock
           << " allocated-bytes, beyond the global clock "
           << vm_->heap().globalAllocatedBytes();
        report("lifespan-monotonic", os.str(), now);
    }
}

// ---------------------------------------------------------------------
// Monitor mutual exclusion + per-policy legal handoff
// ---------------------------------------------------------------------

void
OracleSuite::onMonitorAcquire(jvm::MutatorIndex thread,
                              jvm::MonitorId monitor, bool contended,
                              Ticks now)
{
    observeTime(now);
    MonitorModel &m = monitorModel(monitor);
    ++checks_;
    if (m.holder >= 0) {
        std::ostringstream os;
        os << "monitor " << monitor << " granted to thread " << thread
           << " while held by thread " << m.holder
           << " — mutual exclusion violated";
        report("monitor-exclusion", os.str(), now);
    }
    if (contended) {
        ++m.grants;
        checkContendedGrant(m, thread, monitor, now);
        checkRotationBounds(m, monitor, now);
    } else if (!m.queue.empty() || !m.passive.empty()) {
        std::ostringstream os;
        os << "thread " << thread << " barged monitor " << monitor
           << " past " << (m.queue.size() + m.passive.size())
           << " queued waiter(s) via an uncontended grant";
        report("monitor-fifo", os.str(), now);
    }
    m.holder = thread;
}

void
OracleSuite::checkContendedGrant(MonitorModel &m,
                                 jvm::MutatorIndex thread,
                                 jvm::MonitorId monitor, Ticks now)
{
    // Under every policy a contended grant must come from the active
    // queue; the policies differ only in WHICH active waiter is legal.
    if (m.queue.empty()) {
        std::ostringstream os;
        os << "contended grant of monitor " << monitor << " to thread "
           << thread << " with an empty acquire queue ("
           << jvm::lockPolicyName(locks_.policy) << " policy)";
        report("monitor-fifo", os.str(), now);
        return;
    }
    switch (locks_.policy) {
    case jvm::LockPolicy::Fifo:
        if (m.queue.front() != thread) {
            std::ostringstream os;
            os << "monitor " << monitor << " handed to thread " << thread
               << " ahead of queued thread " << m.queue.front()
               << " — FIFO handoff violated";
            report("monitor-fifo", os.str(), now);
        } else {
            m.queue.pop_front();
        }
        return;
    case jvm::LockPolicy::Barging: {
        // A barging grant is legal anywhere within the first
        // min(window, depth) queue slots, and the policy must grant the
        // head at least once per `window` consecutive handoffs.
        const std::size_t window = std::max<std::uint32_t>(
            1, locks_.barge_window);
        const std::size_t reach = std::min(window, m.queue.size());
        std::size_t pos = reach;
        for (std::size_t i = 0; i < reach; ++i) {
            if (m.queue[i] == thread) {
                pos = i;
                break;
            }
        }
        if (pos == reach) {
            std::ostringstream os;
            os << "monitor " << monitor << " handed to thread " << thread
               << " outside the barging window (first " << reach
               << " of " << m.queue.size() << " waiters)";
            report("monitor-fifo", os.str(), now);
            return;
        }
        if (pos == 0) {
            m.head_miss_streak = 0;
        } else if (++m.head_miss_streak >= window) {
            std::ostringstream os;
            os << "monitor " << monitor << " bypassed its queue head "
               << m.head_miss_streak << " consecutive handoffs — "
               << "barging window " << window << " starvation bound "
               << "violated";
            report("monitor-fifo", os.str(), now);
        }
        m.queue.erase(m.queue.begin() +
                      static_cast<std::ptrdiff_t>(pos));
        return;
    }
    case jvm::LockPolicy::Malthusian:
    case jvm::LockPolicy::Lcr:
        // Culling policies grant strictly from the head of the active
        // set; passivated waiters may only re-enter via an announced
        // reactivation (handled in onMonitorWaiterReactivated).
        if (m.queue.front() != thread) {
            std::ostringstream os;
            os << "monitor " << monitor << " handed to thread " << thread
               << " ahead of active-set head " << m.queue.front()
               << " — " << jvm::lockPolicyName(locks_.policy)
               << " handoff violated";
            report("monitor-fifo", os.str(), now);
        } else {
            m.queue.pop_front();
        }
        return;
    }
}

void
OracleSuite::checkRotationBounds(MonitorModel &m, jvm::MonitorId monitor,
                                 Ticks now)
{
    for (const PassiveEntry &e : m.passive) {
        if (e.bound > 0 && m.grants - e.passivated_at > e.bound) {
            std::ostringstream os;
            os << "passivated thread " << e.thread << " on monitor "
               << monitor << " has waited "
               << (m.grants - e.passivated_at)
               << " handoffs without reactivation (rotation bound "
               << e.bound << ") — starvation bound violated";
            report("monitor-fifo", os.str(), now);
            return;
        }
    }
}

void
OracleSuite::onMonitorWaiterPassivated(jvm::MutatorIndex thread,
                                       jvm::MonitorId monitor, Ticks now)
{
    observeTime(now);
    MonitorModel &m = monitorModel(monitor);
    ++checks_;
    if (locks_.policy != jvm::LockPolicy::Malthusian &&
        locks_.policy != jvm::LockPolicy::Lcr) {
        std::ostringstream os;
        os << "thread " << thread << " passivated on monitor " << monitor
           << " under non-culling policy "
           << jvm::lockPolicyName(locks_.policy);
        report("monitor-fifo", os.str(), now);
        return;
    }
    // The culling policies always demote from the TAIL of the active
    // set (most recently enqueued first).
    if (m.queue.empty() || m.queue.back() != thread) {
        std::ostringstream os;
        os << "thread " << thread << " passivated on monitor " << monitor
           << " but is not the active-set tail";
        report("monitor-fifo", os.str(), now);
        return;
    }
    m.queue.pop_back();
    // A rotation every R handoffs reactivates the passive head, so a
    // waiter entering at 1-based position p is reactivated within
    // p * R grants of the rotation clock; (p + 1) * R from now is a
    // safe upper bound regardless of clock phase.
    const std::uint64_t bound =
        locks_.rotation_period > 0
            ? (static_cast<std::uint64_t>(m.passive.size()) + 2) *
                  locks_.rotation_period
            : 0;
    m.passive.push_back(PassiveEntry{thread, m.grants, bound});
}

void
OracleSuite::onMonitorWaiterReactivated(jvm::MutatorIndex thread,
                                        jvm::MonitorId monitor,
                                        Ticks now)
{
    observeTime(now);
    MonitorModel &m = monitorModel(monitor);
    ++checks_;
    if (m.passive.empty() || m.passive.front().thread != thread) {
        std::ostringstream os;
        os << "thread " << thread << " reactivated on monitor "
           << monitor << " but is not the passive-list head";
        report("monitor-fifo", os.str(), now);
        return;
    }
    m.passive.pop_front();
    // Reactivation promotes to the FRONT of the active set; the
    // triggering handoff grants this waiter immediately.
    m.queue.push_front(thread);
}

void
OracleSuite::onMonitorContended(jvm::MutatorIndex thread,
                                jvm::MonitorId monitor, Ticks now)
{
    observeTime(now);
    monitorModel(monitor).queue.push_back(thread);
}

void
OracleSuite::onMonitorRelease(jvm::MutatorIndex thread,
                              jvm::MonitorId monitor, Ticks now)
{
    observeTime(now);
    MonitorModel &m = monitorModel(monitor);
    ++checks_;
    if (m.holder != static_cast<std::int64_t>(thread)) {
        std::ostringstream os;
        os << "monitor " << monitor << " released by thread " << thread
           << " but held by "
           << (m.holder < 0 ? std::string("nobody")
                            : "thread " + std::to_string(m.holder));
        report("monitor-exclusion", os.str(), now);
    }
    m.holder = -1;
}

void
OracleSuite::onMonitorWaiterCancelled(jvm::MutatorIndex thread,
                                      jvm::MonitorId monitor, Ticks now)
{
    observeTime(now);
    MonitorModel &m = monitorModel(monitor);
    ++checks_;
    for (auto it = m.queue.begin(); it != m.queue.end(); ++it) {
        if (*it == thread) {
            m.queue.erase(it);
            return;
        }
    }
    for (auto it = m.passive.begin(); it != m.passive.end(); ++it) {
        if (it->thread == thread) {
            m.passive.erase(it);
            return;
        }
    }
    std::ostringstream os;
    os << "cancelled waiter thread " << thread
       << " was not queued on monitor " << monitor;
    report("monitor-fifo", os.str(), now);
}

// ---------------------------------------------------------------------
// Safepoint / GC sequencing
// ---------------------------------------------------------------------

void
OracleSuite::onSafepointBegin(std::uint64_t sequence, Ticks now)
{
    observeTime(now);
    ++checks_;
    if (safepoint_pending_) {
        std::ostringstream os;
        os << "safepoint #" << sequence
           << " requested while safepoint #" << safepoint_seq_
           << " is still pending";
        report("event-ordering", os.str(), now);
    }
    safepoint_pending_ = true;
    safepoint_seq_ = sequence;
    safepoint_begin_at_ = now;
}

void
OracleSuite::onSafepointReached(std::uint64_t sequence, Ticks ttsp,
                                Ticks now)
{
    observeTime(now);
    ++checks_;
    if (safepoint_pending_) {
        if (sequence != safepoint_seq_) {
            std::ostringstream os;
            os << "safepoint #" << sequence
               << " reached but #" << safepoint_seq_
               << " was requested";
            report("event-ordering", os.str(), now);
        }
        if (ttsp != now - safepoint_begin_at_) {
            std::ostringstream os;
            os << "safepoint #" << sequence << " reports ttsp "
               << formatTicks(ttsp) << " but "
               << formatTicks(now - safepoint_begin_at_)
               << " elapsed since the request";
            report("event-ordering", os.str(), now);
        }
    } else if (!world_stopped_) {
        // Without a pending request, a reached event is only legal
        // for a collection chained inside a still-stopped world
        // (remark -> pending minor/full at one safepoint).
        std::ostringstream os;
        os << "safepoint #" << sequence
           << " reached without a request and outside a "
           << "stop-the-world window";
        report("event-ordering", os.str(), now);
    }
    safepoint_pending_ = false;
    at_safepoint_ = true;
}

void
OracleSuite::onGcStart(jvm::GcKind kind, std::uint64_t sequence, Ticks now)
{
    (void)kind;
    observeTime(now);
    ++checks_;
    if (in_gc_) {
        std::ostringstream os;
        os << "GC #" << sequence << " started while GC #" << gc_seq_
           << " is still in progress";
        report("event-ordering", os.str(), now);
    }
    in_gc_ = true;
    gc_seq_ = sequence;
    gc_started_at_ = now;
    phase_cursor_ = now;
    phases_seen_ = 0;
}

void
OracleSuite::onGcPhase(std::uint64_t sequence, jvm::GcKind kind,
                       const char *phase, Ticks begin, Ticks end)
{
    (void)kind;
    ++checks_;
    if (!in_gc_ || sequence != gc_seq_) {
        std::ostringstream os;
        os << "GC phase '" << phase << "' of collection #" << sequence
           << " delivered outside that collection";
        report("event-ordering", os.str(), end);
        return;
    }
    if (begin != phase_cursor_ || end < begin) {
        std::ostringstream os;
        os << "GC #" << sequence << " phase '" << phase << "' spans ["
           << formatTicks(begin) << ", " << formatTicks(end)
           << ") but the previous phase ended at "
           << formatTicks(phase_cursor_)
           << " — phases must partition the pause";
        report("event-ordering", os.str(), end);
    }
    phase_cursor_ = end;
    ++phases_seen_;
}

void
OracleSuite::onGcEnd(const jvm::GcEvent &event, Ticks now)
{
    observeTime(now);
    ++checks_;
    if (!in_gc_) {
        std::ostringstream os;
        os << "GC #" << event.sequence << " ended without starting";
        report("event-ordering", os.str(), now);
    } else {
        if (event.safepoint_at != gc_started_at_) {
            std::ostringstream os;
            os << "GC #" << event.sequence << " reports safepoint at "
               << formatTicks(event.safepoint_at) << " but started at "
               << formatTicks(gc_started_at_);
            report("event-ordering", os.str(), now);
        }
        if (phases_seen_ > 0 && phase_cursor_ != now) {
            std::ostringstream os;
            os << "GC #" << event.sequence << " phases end at "
               << formatTicks(phase_cursor_)
               << " but the collection finished at "
               << formatTicks(now)
               << " — phases must partition [safepoint, finish]";
            report("event-ordering", os.str(), now);
        }
    }
    if (reclaim_accounting_) {
        ++checks_;
        if (event.reclaimed_bytes > pending_dead_bytes_) {
            std::ostringstream os;
            os << "GC #" << event.sequence << " reclaimed "
               << event.reclaimed_bytes << " B but only "
               << pending_dead_bytes_
               << " B of objects died since the last collection"
               << " — byte conservation violated";
            report("heap-conservation", os.str(), now);
            pending_dead_bytes_ = 0;
        } else {
            pending_dead_bytes_ -= event.reclaimed_bytes;
        }
    }
    if (vm_ != nullptr) {
        ++checks_;
        vm_->heap().checkInvariants();
    }
    in_gc_ = false;
}

// ---------------------------------------------------------------------
// Scheduler work conservation
// ---------------------------------------------------------------------

namespace {

bool
legalTransition(os::ThreadState from, os::ThreadState to)
{
    using S = os::ThreadState;
    switch (from) {
      case S::New:
        return to == S::Ready;
      case S::Ready:
        return to == S::Running || to == S::Sleeping;
      case S::Running:
        return to == S::Ready || to == S::Blocked || to == S::Sleeping ||
               to == S::Finished;
      case S::Blocked:
        return to == S::Ready;
      case S::Sleeping:
        return to == S::Ready;
      case S::Finished:
        return false;
    }
    return false;
}

} // namespace

void
OracleSuite::onDispatch(const os::OsThread &t, machine::CoreId core,
                        Ticks overhead, bool stolen, Ticks now)
{
    (void)overhead;
    (void)stolen;
    observeTime(now);
    ++checks_;
    if (groupStopped(t.group())) {
        std::ostringstream os;
        os << "thread " << t.id() << " ('" << t.name()
           << "') of group " << t.group() << " dispatched on core "
           << core << " while that group's world is stopped";
        report("sched-conservation", os.str(), now);
    }
    CoreModel &c = coreModel(core);
    if (c.running != 0) {
        std::ostringstream os;
        os << "core " << core << " double-booked: thread " << t.id()
           << " dispatched while thread " << (c.running - 1)
           << " is still running";
        report("sched-conservation", os.str(), now);
    }
    c.running = static_cast<std::uint64_t>(t.id()) + 1;
    c.dispatched_at = now;
    c.mutator = t.kind() == os::ThreadKind::Mutator;
}

void
OracleSuite::onBurstEnd(const os::OsThread &t, machine::CoreId core,
                        Ticks started, bool preempted, Ticks now)
{
    (void)preempted;
    observeTime(now);
    ++checks_;
    CoreModel &c = coreModel(core);
    if (c.running != static_cast<std::uint64_t>(t.id()) + 1) {
        std::ostringstream os;
        os << "burst of thread " << t.id() << " ended on core " << core
           << " which is "
           << (c.running == 0
                   ? std::string("idle")
                   : "running thread " + std::to_string(c.running - 1));
        report("sched-conservation", os.str(), now);
    } else if (started != c.dispatched_at || now < started) {
        std::ostringstream os;
        os << "burst of thread " << t.id() << " on core " << core
           << " reports start " << formatTicks(started)
           << " but was dispatched at " << formatTicks(c.dispatched_at);
        report("sched-conservation", os.str(), now);
    }
    c.running = 0;
}

void
OracleSuite::onThreadState(const os::OsThread &t, os::ThreadState prev,
                           Ticks now)
{
    observeTime(now);
    // Foreign-group threads still obey the state machine and core
    // bookkeeping, but their ready waits span neighbours' pauses the
    // stop-credit model cannot see.
    if (t.group() != group_)
        config_.starvation = false;
    ThreadModel &m = threadModel(t.id());
    const os::ThreadState next = t.state();
    ++checks_;
    if (m.seen && m.state != prev) {
        std::ostringstream os;
        os << "thread " << t.id() << " ('" << t.name()
           << "') left state " << os::threadStateName(prev)
           << " but was last seen in " << os::threadStateName(m.state);
        report("sched-conservation", os.str(), now);
    }
    if (!legalTransition(prev, next)) {
        std::ostringstream os;
        os << "illegal state transition of thread " << t.id() << " ('"
           << t.name() << "'): " << os::threadStateName(prev) << " -> "
           << os::threadStateName(next);
        report("sched-conservation", os.str(), now);
    }
    if (prev == os::ThreadState::Ready && m.seen)
        checkReadyWait(t.id(), now, true);
    if (next == os::ThreadState::Ready) {
        m.ready_since = now;
        m.stop_credit = stoppedTicks(now);
    }
    m.state = next;
    m.seen = true;
}

void
OracleSuite::onWorldStopRequested(std::uint32_t group, Ticks now)
{
    observeTime(now);
    if (group >= group_stopped_.size())
        group_stopped_.resize(group + 1, false);
    ++checks_;
    if (group_stopped_[group]) {
        std::ostringstream os;
        os << "nested stop-the-world request for group " << group;
        report("event-ordering", os.str(), now);
    }
    group_stopped_[group] = true;
    if (group == group_) {
        world_stopped_ = true;
        stop_began_ = now;
    } else {
        // A co-hosted tenant's pauses interleave with ours; the single
        // stop-credit model under the starvation bound is unsound.
        config_.starvation = false;
    }
}

void
OracleSuite::onWorldResumed(std::uint32_t group, Ticks now)
{
    observeTime(now);
    ++checks_;
    if (!groupStopped(group)) {
        std::ostringstream os;
        os << "group " << group
           << " resumed without a stop request";
        report("event-ordering", os.str(), now);
    }
    if (group < group_stopped_.size())
        group_stopped_[group] = false;
    if (group != group_)
        return;
    if (world_stopped_)
        stopped_accum_ += now - stop_began_;
    world_stopped_ = false;
    at_safepoint_ = false;
}

// ---------------------------------------------------------------------
// Request conservation (open-loop traffic)
// ---------------------------------------------------------------------

void
OracleSuite::onRequestArrival(std::uint32_t tenant, std::uint64_t request,
                              Ticks now)
{
    (void)tenant; // probes arrive on our own VM's chain only
    observeTime(now);
    ++checks_;
    RequestModel r;
    r.arrival = now;
    if (!requests_.emplace(request, r).second) {
        std::ostringstream os;
        os << "request " << request << " admitted twice";
        report("request-conservation", os.str(), now);
        return;
    }
    ++requests_admitted_;
}

void
OracleSuite::onRequestShed(std::uint32_t tenant, std::uint64_t request,
                           Ticks now)
{
    (void)tenant;
    observeTime(now);
    ++checks_;
    auto it = requests_.find(request);
    if (it == requests_.end()) {
        // Drop-newest rejects at the door, before admission: track the
        // id so a later dispatch of a shed request is still caught.
        RequestModel r;
        r.arrival = now;
        r.shed = true;
        requests_.emplace(request, r);
        ++requests_shed_;
        return;
    }
    RequestModel &r = it->second;
    if (r.shed || r.dispatched || r.completed) {
        std::ostringstream os;
        os << "request " << request << " shed after it was already "
           << (r.shed ? "shed" : r.completed ? "completed" : "dispatched");
        report("request-conservation", os.str(), now);
        return;
    }
    r.shed = true;
    ++requests_shed_;
}

void
OracleSuite::onRequestDispatched(std::uint32_t tenant,
                                 std::uint64_t request,
                                 jvm::MutatorIndex thread, Ticks now)
{
    (void)tenant;
    observeTime(now);
    ++checks_;
    auto it = requests_.find(request);
    if (it == requests_.end()) {
        std::ostringstream os;
        os << "request " << request
           << " dispatched without being admitted";
        report("request-conservation", os.str(), now);
        return;
    }
    RequestModel &r = it->second;
    if (r.shed) {
        std::ostringstream os;
        os << "shed request " << request << " dispatched to thread "
           << thread;
        report("request-conservation", os.str(), now);
    }
    if (r.dispatched) {
        std::ostringstream os;
        os << "request " << request << " dispatched twice";
        report("request-conservation", os.str(), now);
    }
    if (now < r.arrival) {
        std::ostringstream os;
        os << "request " << request << " dispatched at "
           << formatTicks(now) << ", before its arrival at "
           << formatTicks(r.arrival);
        report("request-conservation", os.str(), now);
    }
    r.dispatched = true;
    r.dispatch = now;
    ServingModel &sv = servingModel(thread);
    if (sv.active) {
        std::ostringstream os;
        os << "thread " << thread << " dispatched request " << request
           << " while still serving request " << sv.request;
        report("request-conservation", os.str(), now);
    }
    sv = ServingModel{};
    sv.active = true;
    sv.request = request;
    sv.dispatch = now;
}

void
OracleSuite::onRequestCompleted(std::uint32_t tenant,
                                std::uint64_t request,
                                jvm::MutatorIndex thread, Ticks now)
{
    (void)tenant;
    observeTime(now);
    ++checks_;
    auto it = requests_.find(request);
    if (it == requests_.end()) {
        std::ostringstream os;
        os << "request " << request
           << " completed without being admitted";
        report("request-conservation", os.str(), now);
        return;
    }
    RequestModel &r = it->second;
    if (!r.dispatched || r.shed || r.completed) {
        std::ostringstream os;
        os << "request " << request << " completed but was "
           << (r.completed ? "already completed"
                           : r.shed ? "shed" : "never dispatched");
        report("request-conservation", os.str(), now);
        return;
    }
    if (now < r.dispatch) {
        std::ostringstream os;
        os << "request " << request << " completed at "
           << formatTicks(now) << ", before its dispatch at "
           << formatTicks(r.dispatch);
        report("request-conservation", os.str(), now);
    }
    r.completed = true;
    ++requests_completed_;
    ServingModel &sv = servingModel(thread);
    if (!sv.active || sv.request != request) {
        std::ostringstream os;
        os << "request " << request << " completed on thread " << thread
           << " which is serving "
           << (sv.active ? "request " + std::to_string(sv.request)
                         : std::string("nothing"));
        report("request-conservation", os.str(), now);
        return;
    }
    sv.completed = true;
    sv.completion = now;
    settleServing(thread, now);
}

// ---------------------------------------------------------------------
// End-of-run checks
// ---------------------------------------------------------------------

void
OracleSuite::finishRun(Ticks now)
{
    ++checks_;
    if (!live_.empty()) {
        std::ostringstream os;
        os << live_.size() << " object(s) leaked (allocated but "
           << "never died); first: object " << live_.begin()->first
           << " of " << live_.begin()->second << " B";
        report("heap-conservation", os.str(), now);
    }
    ++checks_;
    if (world_stopped_)
        report("event-ordering",
               "run ended inside a stop-the-world window", now);
    if (safepoint_pending_) {
        std::ostringstream os;
        os << "run ended with safepoint #" << safepoint_seq_
           << " still pending";
        report("event-ordering", os.str(), now);
    }
    if (in_gc_) {
        std::ostringstream os;
        os << "run ended with GC #" << gc_seq_ << " in progress";
        report("event-ordering", os.str(), now);
    }
    for (std::size_t c = 0; c < cores_.size(); ++c) {
        ++checks_;
        // Helper/daemon bursts may be cut short by VM shutdown
        // without a closing onBurstEnd; only a mutator left on a
        // core marks a real accounting hole.
        if (cores_[c].running != 0 && cores_[c].mutator) {
            std::ostringstream os;
            os << "run ended with thread " << (cores_[c].running - 1)
               << " still running on core " << c;
            report("sched-conservation", os.str(), now);
        }
    }
    for (std::size_t i = 0; i < threads_.size(); ++i) {
        if (threads_[i].seen &&
            threads_[i].state == os::ThreadState::Ready) {
            checkReadyWait(i, now, false);
        }
    }
    if (!requests_.empty()) {
        ++checks_;
        std::uint64_t undispatched = 0;
        std::uint64_t incomplete = 0;
        for (const auto &[id, r] : requests_) {
            if (r.shed)
                continue;
            if (!r.dispatched)
                ++undispatched;
            else if (!r.completed)
                ++incomplete;
        }
        if (incomplete > 0) {
            std::ostringstream os;
            os << incomplete
               << " request(s) dispatched but never completed";
            report("request-conservation", os.str(), now);
        }
        if (undispatched > 0) {
            std::ostringstream os;
            os << undispatched
               << " admitted request(s) neither shed nor dispatched "
               << "at run end";
            report("request-conservation", os.str(), now);
        }
    }
    for (std::size_t m = 0; m < monitors_.size(); ++m) {
        ++checks_;
        if (monitors_[m].holder >= 0) {
            std::ostringstream os;
            os << "run ended with monitor " << m
               << " still held by thread " << monitors_[m].holder;
            report("monitor-exclusion", os.str(), now);
        }
    }
}

} // namespace jscale::check
