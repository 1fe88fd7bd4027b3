#include "jvm/runtime/vm.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "base/error.hh"
#include "base/logging.hh"

namespace jscale::jvm {

const char *
waitBucketName(WaitBucket b)
{
    switch (b) {
      case WaitBucket::Cpu: return "cpu";
      case WaitBucket::RunQueue: return "runq";
      case WaitBucket::Ttsp: return "ttsp";
      case WaitBucket::GcStw: return "gc-stw";
      case WaitBucket::Lock: return "lock";
      case WaitBucket::Waitset: return "waitset";
      case WaitBucket::Channel: return "channel";
      case WaitBucket::AllocStall: return "alloc-stall";
      case WaitBucket::Governor: return "governor";
      case WaitBucket::Stall: return "stall";
      case WaitBucket::Other: return "other";
    }
    return "?";
}

MonitorId
AppContext::createMonitor(const std::string &name)
{
    return vm_.monitors().createMonitor(name);
}

ChannelId
AppContext::createChannel(const std::string &name, std::uint64_t permits)
{
    return vm_.monitors().createChannel(name, permits);
}

JavaVm::JavaVm(sim::Simulation &sim, machine::Machine &mach,
               os::Scheduler &sched, const VmConfig &config)
    : sim_(sim), mach_(mach), sched_(sched), config_(config)
{
    jscale_assert(mach_.enabledCores() > 0,
                  "enable cores before constructing the VM");
    jscale_assert(config_.max_run_time > 0,
                  "max_run_time must be positive");
    max_run_time_ = config_.max_run_time;
    monitors_ = std::make_unique<MonitorTable>(sched_, &listeners_,
                                               config_.locks);
}

JavaVm::~JavaVm() = default;

Heap &
JavaVm::heap()
{
    jscale_assert(heap_ != nullptr, "heap only exists once run() started");
    return *heap_;
}

MonitorTable &
JavaVm::monitors()
{
    return *monitors_;
}

std::uint32_t
JavaVm::gcThreads() const
{
    return config_.gc_threads != 0 ? config_.gc_threads
                                   : mach_.enabledCores();
}

void
JavaVm::requestGc(MutatorThread *t, Ticks now)
{
    // No collection can satisfy an allocation larger than the eden
    // (compartment) itself.
    if (heap_->impossibleAllocation(t->pendingAllocBytes())) {
        jscale_fatal("OutOfMemoryError: allocation of ",
                     formatBytes(t->pendingAllocBytes()),
                     " can never fit the nursery (",
                     formatBytes(heap_->compartmentCapacity()),
                     "); heap ", formatBytes(config_.heap.capacity));
    }

    if (config_.heap.compartmentalized && !heap_->oldGenPressure()) {
        // Thread-local collection: no global safepoint — only the
        // requesting thread pauses while it scavenges its compartment.
        const MinorWork w = heap_->collectCompartment(t->index(), now);
        const Bytes pending = t->pendingAllocBytes();
        if (heap_->compartmentUsed(t->index()) + pending <=
            heap_->effectiveCompartmentCapacity()) {
            const Ticks pause = cost_model_->localPause(w);
            ++gc_stats_.local_count;
            gc_stats_.local_pause += pause;
            listeners_.dispatch([&](RuntimeListener &l) {
                l.onGcWaitBegin(t->index(), /*local=*/true, now);
            });
            t->gcWaitOver();
            sched_.wakeAt(t->osThread(), now + pause);
            return;
        }
        // The compartment is dominated by live data; escalate to a
        // global full collection.
    }

    gc_waiters_.push_back(t);
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onGcWaitBegin(t->index(), /*local=*/false, now);
    });
    if (gc_in_progress_)
        return; // the in-flight collection will serve this thread too
    gc_in_progress_ = true;
    gc_requested_at_ = now;
    listeners_.dispatch(
        [&](RuntimeListener &l) { l.onSafepointBegin(gc_seq_, now); });
    sched_.stopTheWorld(config_.tenant, [this] { performGcAtSafepoint(); });
}

void
JavaVm::performGcAtSafepoint()
{
    const Ticks safepoint_at = sim_.now();
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onSafepointReached(gc_seq_, safepoint_at - gc_requested_at_,
                             safepoint_at);
    });

    // In compartmentalized mode a stop-the-world collection only happens
    // under old-generation pressure (or an overfull compartment), and it
    // is a full collection; the routine nursery work is handled by
    // thread-local compartment scavenges without a safepoint.
    MinorWork minor;
    FullWork full;
    bool ran_full = false;
    Ticks duration = 0;
    std::vector<GcPhaseCost> phases;
    if (config_.heap.compartmentalized) {
        full = heap_->collectFull(safepoint_at);
        ran_full = true;
        duration = cost_model_->fullPause(full);
        phases = cost_model_->fullPhases(full);
    } else {
        minor = heap_->collectMinor(safepoint_at);
        duration = cost_model_->minorPause(minor);
        phases = cost_model_->minorPhases(minor);
        if (minor.needs_full) {
            if (cycle_active_) {
                // Concurrent mode failure: the old generation filled
                // before marking finished; abort and fall back to a
                // stop-the-world full collection.
                ++gc_stats_.concurrent_failures;
                marker_->abortCycle();
                cycle_active_ = false;
                listeners_.dispatch([&](RuntimeListener &l) {
                    l.onConcurrentMarkEnd(gc_stats_.concurrent_cycles,
                                          /*aborted=*/true, safepoint_at);
                });
            }
            ran_full = true;
            full = heap_->collectFull(safepoint_at);
            duration += cost_model_->fullPause(full);
            const auto full_phases = cost_model_->fullPhases(full);
            phases.insert(phases.end(), full_phases.begin(),
                          full_phases.end());
        }
    }

    const GcKind kind = ran_full ? GcKind::Full : GcKind::Minor;
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onGcStart(kind, gc_seq_, safepoint_at);
    });

    sim_.scheduleAfter(static_cast<TickDelta>(duration),
                       [this, kind, minor, full, ran_full, safepoint_at,
                        phases = std::move(phases)] {
                           finishGc(kind, minor, full, ran_full,
                                    safepoint_at, phases);
                       },
                       "gc-finish");
}

void
JavaVm::finishGc(GcKind kind, const MinorWork &minor, const FullWork &full,
                 bool ran_full, Ticks safepoint_at,
                 const std::vector<GcPhaseCost> &phases)
{
    const Ticks now = sim_.now();

    GcEvent ev;
    ev.kind = kind;
    ev.sequence = gc_seq_++;
    ev.requested_at = gc_requested_at_;
    ev.safepoint_at = safepoint_at;
    ev.finished_at = now;
    ev.moved_bytes = minor.copied_bytes + minor.promoted_bytes +
                     (ran_full ? full.live_bytes : 0);
    ev.promoted_bytes = minor.promoted_bytes;
    ev.reclaimed_bytes = minor.reclaimed_bytes +
                         (ran_full ? full.reclaimed_bytes : 0);

    if (kind == GcKind::Minor || !config_.heap.compartmentalized) {
        ++gc_stats_.minor_count;
        gc_stats_.minor_pauses.add(static_cast<double>(ev.pause()));
    }
    if (ran_full) {
        ++gc_stats_.full_count;
        gc_stats_.full_pauses.add(static_cast<double>(ev.pause()));
    }
    gc_stats_.total_pause += ev.pause();
    gc_stats_.pause_hist.add(ev.pause());
    gc_stats_.total_ttsp += ev.timeToSafepoint();
    gc_stats_.copied_bytes += minor.copied_bytes;
    gc_stats_.promoted_bytes += minor.promoted_bytes;
    gc_stats_.reclaimed_bytes += ev.reclaimed_bytes;
    if (minor.scanned_bytes > 0) {
        gc_stats_.nursery_survival.add(
            static_cast<double>(minor.copied_bytes +
                                minor.promoted_bytes) /
            static_cast<double>(minor.scanned_bytes));
    }
    gc_stats_.events.push_back(ev);

    Ticks phase_at = safepoint_at;
    for (const GcPhaseCost &p : phases) {
        const Ticks phase_end = phase_at + p.duration;
        listeners_.dispatch([&](RuntimeListener &l) {
            l.onGcPhase(ev.sequence, kind, p.name, phase_at, phase_end);
        });
        phase_at = phase_end;
    }
    listeners_.dispatch([&](RuntimeListener &l) { l.onGcEnd(ev, now); });

    // An old generation that a full collection could not bring under
    // capacity means the workload does not fit this heap — unless the
    // ergonomics can return young-generation space to the old
    // generation (HotSpot grows the old gen the same way).
    if (heap_->oldUsed() > heap_->oldCapacity() && adaptive_) {
        const double needed_young =
            1.0 - 1.1 * static_cast<double>(heap_->oldUsed()) /
                      static_cast<double>(config_.heap.capacity);
        if (needed_young > 0.02 && heap_->resizeYoung(needed_young))
            ++gc_stats_.young_resizes;
    }
    if (heap_->oldUsed() > heap_->oldCapacity()) {
        jscale_fatal("OutOfMemoryError: live data ",
                     formatBytes(heap_->oldUsed()),
                     " exceeds old generation ",
                     formatBytes(heap_->oldCapacity()),
                     " (heap ", formatBytes(config_.heap.capacity), ")");
    }

    maybeResizeYoung(ev);
    last_gc_end_ = now;

    gc_in_progress_ = false;
    std::vector<MutatorThread *> waiters;
    waiters.swap(gc_waiters_);
    sched_.resumeWorld(config_.tenant);
    for (MutatorThread *t : waiters) {
        t->gcWaitOver();
        sched_.wake(t->osThread());
    }
    if (remark_pending_) {
        remark_pending_ = false;
        requestRemark();
    } else {
        maybeStartConcurrentCycle();
    }
}

void
JavaVm::maybeStartConcurrentCycle()
{
    if (config_.collector != CollectorKind::ConcurrentOld ||
        cycle_active_ || gc_in_progress_ || !marker_) {
        return;
    }
    if (static_cast<double>(heap_->oldUsed()) <=
        config_.concurrent.initiating_occupancy *
            static_cast<double>(heap_->oldCapacity())) {
        return;
    }
    // Throttle: if the previous sweep barely reclaimed anything (the
    // occupancy is live data, not garbage), wait until real garbage
    // accumulates before burning another cycle.
    if (heap_->oldUsed() <
        post_sweep_old_used_ + heap_->oldCapacity() / 20) {
        return;
    }
    cycle_active_ = true;
    ++gc_stats_.concurrent_cycles;
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onConcurrentMarkBegin(gc_stats_.concurrent_cycles, sim_.now());
    });
    const Ticks budget = static_cast<Ticks>(
        static_cast<double>(heap_->oldUsed()) /
        config_.concurrent.mark_bw);
    marker_->beginCycle(budget);
}

void
JavaVm::onConcurrentCycleDone()
{
    if (!cycle_active_)
        return; // aborted cycle raced with completion
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onConcurrentMarkEnd(gc_stats_.concurrent_cycles,
                              /*aborted=*/false, sim_.now());
    });
    requestRemark();
}

void
JavaVm::requestRemark()
{
    if (gc_in_progress_) {
        remark_pending_ = true;
        return;
    }
    gc_in_progress_ = true;
    gc_requested_at_ = sim_.now();
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onSafepointBegin(gc_seq_, gc_requested_at_);
    });
    sched_.stopTheWorld(config_.tenant,
                        [this] { performRemarkAtSafepoint(); });
}

void
JavaVm::performRemarkAtSafepoint()
{
    const Ticks safepoint_at = sim_.now();
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onSafepointReached(gc_seq_, safepoint_at - gc_requested_at_,
                             safepoint_at);
    });
    const FullWork sweep = heap_->sweepOld(safepoint_at);
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onGcStart(GcKind::Remark, gc_seq_, safepoint_at);
    });
    const GcCostParams &p = config_.gc_costs;
    const Ticks pause = static_cast<Ticks>(
        static_cast<double>(config_.concurrent.remark_base) +
        static_cast<double>(p.root_scan_per_thread) *
            static_cast<double>(n_threads_) +
        p.scan_cost_per_object *
            static_cast<double>(sweep.scanned_objects));
    sim_.scheduleAfter(static_cast<TickDelta>(pause),
                       [this, sweep, safepoint_at] {
                           finishRemark(sweep, safepoint_at);
                       },
                       "remark-finish");
}

void
JavaVm::finishRemark(const FullWork &sweep, Ticks safepoint_at)
{
    const Ticks now = sim_.now();
    GcEvent ev;
    ev.kind = GcKind::Remark;
    ev.sequence = gc_seq_++;
    ev.requested_at = gc_requested_at_;
    ev.safepoint_at = safepoint_at;
    ev.finished_at = now;
    ev.reclaimed_bytes = sweep.reclaimed_bytes;

    ++gc_stats_.remark_count;
    gc_stats_.total_pause += ev.pause();
    gc_stats_.pause_hist.add(ev.pause());
    gc_stats_.total_ttsp += ev.timeToSafepoint();
    gc_stats_.reclaimed_bytes += ev.reclaimed_bytes;
    gc_stats_.events.push_back(ev);
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onGcPhase(ev.sequence, GcKind::Remark, "remark+sweep",
                    safepoint_at, now);
    });
    listeners_.dispatch([&](RuntimeListener &l) { l.onGcEnd(ev, now); });

    cycle_active_ = false;
    post_sweep_old_used_ = heap_->oldUsed();

    // Live data the sweep could not reclaim must still fit.
    if (heap_->oldUsed() > heap_->oldCapacity()) {
        jscale_fatal("OutOfMemoryError: live data ",
                     formatBytes(heap_->oldUsed()),
                     " exceeds old generation ",
                     formatBytes(heap_->oldCapacity()),
                     " (heap ", formatBytes(config_.heap.capacity), ")");
    }

    // Allocation failures that queued during the remark pause are
    // served by a nursery collection within the same safepoint.
    if (!gc_waiters_.empty()) {
        performGcAtSafepoint();
        return;
    }
    gc_in_progress_ = false;
    sched_.resumeWorld(config_.tenant);
    maybeStartConcurrentCycle();
}

void
JavaVm::maybeResizeYoung(const GcEvent &ev)
{
    if (!adaptive_)
        return;
    const Ticks interval = ev.requested_at > last_gc_end_
                               ? ev.requested_at - last_gc_end_
                               : 0;
    const double fraction = adaptive_->decide(
        interval, ev.pause(), heap_->liveBytes(), config_.heap.capacity);
    if (fraction != heap_->config().young_fraction) {
        if (heap_->resizeYoung(fraction))
            ++gc_stats_.young_resizes;
    }
    gc_stats_.adaptive = adaptive_->adaptiveStats();
}

void
JavaVm::onMutatorFinished(MutatorThread *t, Ticks now)
{
    heap_->killThreadObjects(t->index(), now);
    listeners_.dispatch(
        [&](RuntimeListener &l) { l.onThreadFinish(t->index(), now); });
    ++mutators_finished_;
    // A departing mutator frees an admission slot; let the governor
    // backfill it immediately rather than at its next decision tick.
    if (admission_ != nullptr)
        admission_->onMutatorFinished(*t, now);
    if (mutators_finished_ == n_threads_) {
        run_end_time_ = now;
        // Finalize the heap while the simulation still stands at the
        // run's end time: remaining (pinned) data dies at VM shutdown,
        // and in hosted mode a neighbour tenant's clock must not have
        // advanced past this tenant's finish when the deaths deliver.
        heap_->killAllRemaining(now);
        if (admission_ != nullptr)
            admission_->onRunEnd(now);
        // A hosted VM reports completion to its host (which stops the
        // shared simulation once every tenant is done); a standalone VM
        // stops its own simulation.
        if (run_completed_cb_)
            run_completed_cb_(now);
        else
            sim_.requestStop();
    }
}

void
JavaVm::onTaskCompleted(MutatorIndex idx, Ticks now)
{
    ++total_tasks_;
    listeners_.dispatch([&](RuntimeListener &l) {
        l.onTaskEnd(idx, total_tasks_, now);
    });
}

void
JavaVm::onTaskAbandoned(MutatorIndex idx)
{
    (void)idx;
    ++tasks_reassigned_;
}

bool
JavaVm::mutatorAlive(std::uint32_t idx) const
{
    if (idx >= mutators_.size())
        return false;
    const MutatorThread *t = mutators_[idx].get();
    return !t->finished() && !t->killPending();
}

bool
JavaVm::killMutator(std::uint32_t idx, Ticks now)
{
    if (!mutatorAlive(idx))
        return false;
    // Count kill-pending threads as already dead: aliveMutators() only
    // tracks finished threads, so a burst of same-tick kills would
    // otherwise take every mutator. The run must still be able to
    // complete, so at least one survivor is always left.
    std::uint32_t survivors = 0;
    for (std::uint32_t i = 0; i < mutators_.size(); ++i) {
        if (mutatorAlive(i))
            ++survivors;
    }
    if (survivors <= 1)
        return false;
    MutatorThread *t = mutators_[idx].get();
    t->requestKill();
    os::OsThread *os = t->osThread();
    switch (os->state()) {
      case os::ThreadState::Running:
      case os::ThreadState::Ready:
        // The kill executes at the thread's next burst boundary.
        break;
      case os::ThreadState::Sleeping:
        sched_.wake(os);
        break;
      case os::ThreadState::Blocked:
        // Extract the thread from whatever structure holds it, then
        // wake it so the kill executes promptly.
        if (t->awaitingGc()) {
            std::erase(gc_waiters_, t);
            t->cancelGcWait();
            sched_.wake(os);
        } else if (t->awaitingGrant()) {
            monitors_->cancelWaiter(t, now);
            t->cancelGrantWait();
            sched_.wake(os);
        } else if (admission_ != nullptr &&
                   admission_->cancelPark(*t, now)) {
            // Woken through the admission API so the scheduler's
            // park/unpark counters stay balanced.
        } else {
            sched_.wake(os);
        }
        break;
      default:
        return false;
    }
    return true;
}

bool
JavaVm::stallMutator(std::uint32_t idx, Ticks until)
{
    if (idx >= mutators_.size())
        return false;
    MutatorThread *t = mutators_[idx].get();
    if (t->finished() || t->killPending())
        return false;
    // Parked/waiting threads are already off-CPU; stalling them again
    // would race their wake protocols. Stall only schedulable states.
    const os::ThreadState s = t->osThread()->state();
    if (s != os::ThreadState::Running && s != os::ThreadState::Ready)
        return false;
    sched_.stallThread(t->osThread(), until);
    return true;
}

void
JavaVm::setGcWorkers(std::uint32_t n)
{
    jscale_assert(cost_model_ != nullptr,
                  "setGcWorkers only valid during run()");
    cost_model_->setGcThreads(n);
}

std::uint32_t
JavaVm::activeGcWorkers() const
{
    return cost_model_ ? cost_model_->gcThreads() : gcThreads();
}

std::uint64_t
JavaVm::mutatorActionsExecuted() const
{
    std::uint64_t total = 0;
    for (const auto &mt : mutators_)
        total += mt->mutStats().actions_executed;
    return total;
}

RunResult
JavaVm::run(ApplicationModel &app, std::uint32_t n_threads)
{
    prepare(app, n_threads);
    sim_.run(run_start_time_ + max_run_time_);
    return collectResult();
}

void
JavaVm::prepare(ApplicationModel &app, std::uint32_t n_threads)
{
    jscale_assert(!ran_, "a JavaVm instance runs exactly once");
    jscale_assert(n_threads >= 1, "run requires at least one thread");
    ran_ = true;
    n_threads_ = n_threads;
    app_name_ = app.appName();

    heap_ = std::make_unique<Heap>(config_.heap, n_threads, &listeners_);
    cost_model_ = std::make_unique<GcCostModel>(
        config_.gc_costs, mach_, gcThreads(), n_threads);
    if (config_.collector == CollectorKind::ConcurrentOld) {
        jscale_assert(!config_.heap.compartmentalized,
                      "concurrent-old collector and compartmentalized "
                      "heap are mutually exclusive");
        marker_ = std::make_unique<ConcurrentMarker>(
            sched_, config_.concurrent.mark_chunk,
            [this] { onConcurrentCycleDone(); });
    }
    if (config_.adaptive.enabled && !config_.heap.compartmentalized) {
        adaptive_ = std::make_unique<AdaptiveSizePolicy>(
            config_.adaptive, config_.heap.young_fraction);
    }

    AppContext ctx(*this, n_threads, sim_.forkRng(0xa99'0001ULL));
    app.setup(ctx);

    // Application threads.
    for (std::uint32_t i = 0; i < n_threads; ++i) {
        auto src = app.threadSource(i, ctx);
        jscale_assert(src != nullptr, "null thread source");
        auto mt = std::make_unique<MutatorThread>(
            *this, i, std::move(src),
            app.appName() + "-worker-" + std::to_string(i));
        mt->bindOsThread(sched_.registerThread(
            mt.get(), os::ThreadKind::Mutator, {}, config_.tenant));
        mutators_.push_back(std::move(mt));
    }

    // VM helper threads, spread across the enabled cores (and thus
    // sockets) so their interference is not concentrated.
    if (config_.enable_helpers) {
        const HelperConfig &h = config_.helpers;
        const auto &enabled = mach_.enabledCoreIds();
        const std::uint32_t n_helpers =
            h.jit_threads + (h.periodic_daemon ? 1 : 0);
        auto helper_home = [&](std::uint32_t i) {
            const std::size_t stride = std::max<std::size_t>(
                1, enabled.size() / std::max<std::uint32_t>(n_helpers, 1));
            return enabled[(i * stride) % enabled.size()];
        };
        std::uint32_t next_helper = 0;
        for (std::uint32_t i = 0; i < h.jit_threads; ++i) {
            auto ht = std::make_unique<HelperThread>(
                sched_, HelperKind::JitCompiler, h.jit_burst_mean,
                h.jit_sleep_mean_initial, h.jit_backoff,
                sim_.forkRng(0x4a17'0000ULL + i),
                "jit-compiler-" + std::to_string(i));
            ht->bindOsThread(sched_.registerThread(
                ht.get(), os::ThreadKind::Helper,
                helper_home(next_helper++), config_.tenant));
            helpers_.push_back(std::move(ht));
        }
        if (h.periodic_daemon) {
            auto ht = std::make_unique<HelperThread>(
                sched_, HelperKind::PeriodicDaemon, h.periodic_burst,
                h.periodic_interval, 1.0, sim_.forkRng(0xda3a'0001ULL),
                "vm-periodic");
            ht->bindOsThread(sched_.registerThread(
                ht.get(), os::ThreadKind::Daemon,
                helper_home(next_helper++), config_.tenant));
            helpers_.push_back(std::move(ht));
        }
    }

    if (marker_) {
        marker_->bindOsThread(sched_.registerThread(
            marker_.get(), os::ThreadKind::Helper, {}, config_.tenant));
    }

    const Ticks start = sim_.now();
    if (admission_ != nullptr)
        admission_->onRunStart(n_threads, start);
    for (std::uint32_t i = 0; i < n_threads; ++i) {
        listeners_.dispatch(
            [&](RuntimeListener &l) { l.onThreadStart(i, start); });
    }
    for (auto &mt : mutators_)
        sched_.start(mt->osThread());
    for (auto &ht : helpers_)
        sched_.start(ht->osThread());
    if (marker_)
        sched_.start(marker_->osThread());
    run_start_time_ = start;
}

RunResult
JavaVm::collectResult()
{
    jscale_assert(ran_, "collectResult before prepare/run");
    if (mutators_finished_ != n_threads_) {
        // Abort this run only: a sweep harness catches AbortError at
        // the run boundary and isolates it as a per-run error artifact.
        throw AbortError(
            "application '" + app_name_ + "' did not finish within " +
            formatTicks(max_run_time_) +
            " of simulated time (deadlock or undersized heap?): " +
            std::to_string(mutators_finished_) + "/" +
            std::to_string(n_threads_) + " threads finished");
    }

    // Heap finalization (the end-of-run object deaths) happened at the
    // run's end inside onMutatorFinished, so collecting emits no
    // listener events at all — hosted tenants are collected after the
    // shared simulation has moved past their individual finish times.
    RunResult r;
    r.app_name = app_name_;
    r.threads = n_threads_;
    r.cores = mach_.enabledCores();
    r.heap_capacity = config_.heap.capacity;
    r.wall_time = run_end_time_ - run_start_time_;
    r.gc_time = gc_stats_.total_pause;
    r.gc = gc_stats_;
    r.heap = heap_->heapStats();
    r.locks.acquisitions = monitors_->totalAcquisitions();
    r.locks.contentions = monitors_->totalContentions();
    r.locks.block_time = monitors_->totalBlockTime();
    r.locks.monitors = monitors_->monitorCount();
    const MonitorStats agg = monitors_->aggregateStats();
    r.locks.biased_acquisitions = agg.biased_acquisitions;
    r.locks.thin_acquisitions = agg.thin_acquisitions;
    r.locks.fat_acquisitions = agg.fat_acquisitions;
    r.locks.bias_revocations = agg.bias_revocations;
    r.locks.inflations = agg.inflations;
    r.locks.waits = agg.waits;
    r.locks.notifies = agg.notifies;
    r.locks.handoffs = agg.handoffs;
    r.locks.barged_grants = agg.barged_grants;
    r.locks.waiters_passivated = agg.waiters_passivated;
    r.locks.waiters_reactivated = agg.waiters_reactivated;
    r.locks.coherence_penalty = agg.coherence_penalty;
    r.locks.circulation_sum = agg.circulation_sum;
    r.locks.block_hist = agg.block_hist;
    r.total_tasks = total_tasks_;
    if (admission_ != nullptr)
        admission_->summarize(r.governor);
    r.sched = sched_.schedStats();
    r.sim_events = sim_.eventsProcessed();

    for (const auto &ot : sched_.threads()) {
        // In hosted (multi-tenant) mode the scheduler carries several
        // VMs' threads; each VM summarizes only its own group.
        if (ot->group() != config_.tenant)
            continue;
        ThreadSummary ts;
        ts.name = ot->name();
        ts.kind = ot->kind();
        ts.cpu_time = ot->cpuTime();
        ts.ready_time = ot->readyTime();
        ts.blocked_time = ot->blockedTime();
        ts.sleep_time = ot->sleepTime();
        ts.dispatches = ot->dispatches();
        ts.migrations = ot->migrations();
        if (ot->kind() == os::ThreadKind::Mutator) {
            // Mutators are the group's first registrations, so the
            // group-local id is the mutator index.
            const auto idx = static_cast<std::size_t>(ot->localId());
            if (idx < mutators_.size()) {
                const MutatorStats &ms = mutators_[idx]->mutStats();
                ts.tasks_completed = ms.tasks_completed;
                ts.allocations = ms.allocations;
                ts.bytes_allocated = ms.bytes_allocated;
            }
        }
        r.thread_summaries.push_back(std::move(ts));
    }
    return r;
}

} // namespace jscale::jvm
