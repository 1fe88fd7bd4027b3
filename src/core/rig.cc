#include "core/rig.hh"

#include <algorithm>

#include "base/logging.hh"
#include "os/policy.hh"
#include "telemetry/profile_tracks.hh"
#include "workload/dacapo.hh"

namespace jscale::core {

bool
openArtifact(std::optional<AtomicFileWriter> &writer,
             const std::string &path, std::vector<std::string> &errors)
{
    writer.emplace(path);
    if (!writer->ok()) {
        writer.reset();
        errors.push_back("cannot open artifact '" + path + "'");
        return false;
    }
    return true;
}

bool
commitArtifact(std::optional<AtomicFileWriter> &writer,
               std::vector<std::string> &errors)
{
    std::string err;
    if (writer->commit(err)) {
        writer.reset();
        return true;
    }
    errors.push_back("artifact '" + writer->path() + "': " + err);
    writer.reset();
    return false;
}

RunRig::RunRig(const ExperimentConfig &config, RigInputs inputs)
    : config_(config), inputs_(std::move(inputs)), sim_(inputs_.seed),
      mach_(config.machine), sched_(sim_, mach_, config.sched)
{
    jscale_assert(!inputs_.vms.empty(), "a run needs at least one VM");
    jscale_assert(inputs_.timeline_file.empty() || inputs_.vms.size() == 1,
                  "a timeline records a single-VM run");
    std::uint32_t threads = 0;
    for (const RigVm &v : inputs_.vms)
        threads += v.threads;
    mach_.enableCores(std::min(threads, config_.machine.totalCores()),
                      config_.placement);
    if (config_.biased_scheduling) {
        sched_.setPolicy(std::make_unique<os::BiasedPolicy>(
            config_.bias_groups, config_.bias_quantum));
        // Phase rotations must re-kick idle cores: one pooled event
        // fires at every phase edge for the whole run.
        rotator_.emplace(
            sim_.queue(), static_cast<TickDelta>(config_.bias_quantum),
            [this] { sched_.kickAll(); }, "bias-phase-rotate");
        rotator_->start(sim_.now() + config_.bias_quantum);
    }
    for (std::size_t i = 0; i < inputs_.vms.size(); ++i)
        buildVm(i);
    buildTelemetry();
}

void
RunRig::buildVm(std::size_t i)
{
    const RigVm &in = inputs_.vms[i];
    VmParts &p = vms_.emplace_back();
    jvm::VmConfig vm_cfg = config_.vm;
    vm_cfg.heap.capacity = in.heap_capacity;
    // Each VM is its own scheduling group on the shared scheduler.
    vm_cfg.tenant = static_cast<std::uint32_t>(i);
    jvm::JavaVm &vm = p.vm.emplace(sim_, mach_, sched_, vm_cfg);

    // Ledger → profiler, built only for a consumer: the profiler feeds
    // the blame summary, the oracles and the traffic engine; the ledger
    // feeds the profiler and the timeline. Bare runs subscribe nothing.
    const bool wants_profiler =
        config_.profile || config_.oracles || in.arrival.has_value();
    if (wants_profiler || !inputs_.timeline_file.empty()) {
        p.ledger.emplace();
        p.ledger->attach(vm);
    }
    if (wants_profiler) {
        p.profiler.emplace();
        p.profiler->attach(vm, *p.ledger);
    }

    // Profiler → engine: its task sink goes before the oracles' sinks,
    // as the request-conservation oracle relies on completion probes
    // firing before it sees the closed service window.
    p.app = in.app;
    if (in.arrival) {
        p.served = workload::makeDacapoApp(in.app_name);
        p.engine.emplace(vm, *in.arrival, *p.profiler);
        p.open_loop.emplace(*p.served, *p.engine);
        p.app = &*p.open_loop;
    }

    // Governor: it steers the run, but from simulation state alone.
    if (config_.governor.mode != control::GovernorMode::Off) {
        p.governor.emplace(sim_, vm, config_.governor);
        vm.setTaskAdmission(&*p.governor);
    }

    // Injector → watchdog: ordinary sim events, armed by run().
    if (!config_.faults.empty())
        p.injector.emplace(sim_, mach_, vm, config_.faults);
    if (config_.watchdog)
        p.watchdog.emplace(sim_, vm, config_.watchdog_config);

    // Oracles: before the telemetry taps and every attach hook, so
    // those see the chain order production runs have.
    if (config_.oracles) {
        p.oracles.emplace();
        p.oracles->attach(vm, *p.profiler);
    }
}

void
RunRig::buildTelemetry()
{
    // Timeline recorder → metric sampler on VM 0: pure observers. An
    // artifact that cannot be opened (or fails mid-write) is reported
    // per run and the run continues without it.
    VmParts &p = vms_.front();
    if (!inputs_.timeline_file.empty() &&
        openArtifact(timeline_writer_, inputs_.timeline_file,
                     artifact_errors_)) {
        timeline_.emplace(timeline_writer_->stream());
        recorder_.emplace(*timeline_);
        recorder_->attach(*p.vm, *p.ledger);
        if (p.injector) {
            timeline_->processName(telemetry::kFaultsPid, "faults");
            timeline_->threadName(telemetry::kFaultsPid, 0, "injections");
            telemetry::Timeline *tl = &*timeline_;
            p.injector->setProbe([tl](const char *kind, bool recovery,
                                      const std::string &detail, Ticks now) {
                tl->instant(telemetry::kFaultsPid, 0,
                            std::string(kind) +
                                (recovery ? ".recover" : ".inject"),
                            "fault", now,
                            {telemetry::targ("detail", detail)});
            });
        }
    }
    if (inputs_.metrics_file.empty())
        return;
    sampler_.emplace(sim_, *p.vm, config_.metrics_interval);
    if (timeline_)
        sampler_->attachTimeline(&*timeline_);
    // Per-tenant gauges only on multi-VM runs, so single-VM CSV schemas
    // never change shape.
    if (vms_.size() > 1) {
        for (std::size_t i = 0; i < vms_.size(); ++i) {
            traffic::TrafficEngine *eng = &*vms_[i].engine;
            const std::string prefix = "tenant" + std::to_string(i) + "_" +
                                       inputs_.vms[i].app_name;
            sampler_->addGauge(prefix + "_queued",
                               [eng] { return eng->queueDepth(); });
            sampler_->addGauge(prefix + "_inflight",
                               [eng] { return eng->inflightCount(); });
        }
    }
    sampler_->start();
}

void
RunRig::run(std::span<jvm::RunResult> results, const VmAttachHook &attach)
{
    jscale_assert(results.size() == vms_.size(), "one result per VM");
    // Each VM reports completion instead of stopping the shared
    // simulation: its watchdog disarms (its gauges stop moving while a
    // neighbour still runs), and the last VM to finish stops the run.
    std::size_t finished = 0;
    Ticks budget = 0;
    for (std::size_t i = 0; i < vms_.size(); ++i) {
        VmParts &p = vms_[i];
        if (attach)
            attach(*p.vm);
        if (p.injector)
            p.injector->arm(sim_.now());
        if (p.watchdog)
            p.watchdog->start(sim_.now());
        fault::RunWatchdog *watchdog = p.watchdog ? &*p.watchdog : nullptr;
        p.vm->setRunCompletedCallback([this, watchdog, &finished](Ticks) {
            if (watchdog)
                watchdog->stop();
            if (++finished == vms_.size())
                sim_.requestStop();
        });
        budget = std::max(budget, p.vm->config().max_run_time);
    }
    const Ticks begin = sim_.now();
    for (std::size_t i = 0; i < vms_.size(); ++i)
        vms_[i].vm->prepare(*vms_[i].app, inputs_.vms[i].threads);
    sim_.run(begin + budget);
    for (std::size_t i = 0; i < vms_.size(); ++i)
        results[i] = vms_[i].vm->collectResult();
    finish(results);
}

void
RunRig::finish(std::span<jvm::RunResult> results)
{
    const Ticks now = sim_.now();
    for (std::size_t i = 0; i < results.size(); ++i) {
        VmParts &p = vms_[i];
        jvm::RunResult &r = results[i];
        if (p.engine)
            r.traffic = p.engine->summary();
        if (p.oracles)
            p.oracles->finishRun(now);
        if (p.profiler)
            p.profiler->finishRun(now);
        // Read after the profiler's last task sinks have fired.
        if (p.oracles)
            r.oracle_checks = p.oracles->checksPerformed();
        // The blame summary; primary stats stay those of a bare run.
        if (config_.profile)
            r.profile = p.profiler->summary(config_.profile_topk);
        if (p.injector) {
            r.faults = p.injector->summary();
            r.faults.tasks_reassigned = p.vm->tasksReassigned();
        }
    }

    // Final sampler row before the timeline closes (it mirrors there).
    jvm::RunResult &first = results.front();
    if (sampler_)
        sampler_->finish(now);
    if (recorder_) {
        recorder_->finish(now);
        recorder_->detach();
        if (config_.profile)
            telemetry::emitProfileTracks(*timeline_, first.profile, now);
        timeline_->finish();
        // A file is claimed only once it is in place.
        if (commitArtifact(timeline_writer_, artifact_errors_)) {
            first.timeline_file = inputs_.timeline_file;
            first.timeline_events = timeline_->events();
        }
    }
    if (sampler_) {
        std::optional<AtomicFileWriter> csv;
        if (openArtifact(csv, inputs_.metrics_file, artifact_errors_)) {
            sampler_->writeCsv(csv->stream());
            if (commitArtifact(csv, artifact_errors_)) {
                for (jvm::RunResult &r : results) {
                    r.metrics_file = inputs_.metrics_file;
                    r.metric_rows = sampler_->samples().size();
                }
            }
        }
    }
    for (jvm::RunResult &r : results)
        r.artifact_errors = artifact_errors_;
}

} // namespace jscale::core
