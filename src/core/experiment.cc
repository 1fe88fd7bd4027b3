#include "core/experiment.hh"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#include "base/atomic_file.hh"
#include "base/error.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "check/oracle.hh"
#include "core/parallel.hh"
#include "core/shard.hh"
#include "fault/injector.hh"
#include "fault/watchdog.hh"
#include "os/policy.hh"
#include "profile/ledger.hh"
#include "profile/profiler.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"
#include "telemetry/profile_tracks.hh"
#include "telemetry/recorder.hh"
#include "telemetry/sampler.hh"
#include "telemetry/timeline.hh"
#include "workload/dacapo.hh"

namespace jscale::core {

namespace {

/** Substitute "{app}" / "{threads}" placeholders in an artifact path. */
std::string
substitutePlaceholders(std::string path, const std::string &app,
                       std::uint32_t threads)
{
    const auto replaceAll = [&path](const std::string &from,
                                    const std::string &to) {
        for (std::size_t pos = path.find(from); pos != std::string::npos;
             pos = path.find(from, pos + to.size())) {
            path.replace(pos, from.size(), to);
        }
    };
    replaceAll("{app}", app);
    replaceAll("{threads}", std::to_string(threads));
    return path;
}

/**
 * Open an atomic writer for @p path. Failure is per-artifact, not
 * fatal: the message lands in @p errors and the run (and the rest of
 * the sweep) continues without it.
 */
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

/**
 * Publish a finished artifact (flush + fsync + rename). A mid-write
 * stream failure or a failed rename lands in @p errors; a killed
 * process never leaves a torn file under the final name.
 */
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

/** Insert "-<tag>" before the extension of an artifact path. */
std::string
tagPath(const std::string &path, const std::string &tag)
{
    if (path.empty())
        return path;
    const auto dot = path.find_last_of('.');
    const auto slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "-" + tag;
    return path.substr(0, dot) + "-" + tag + path.substr(dot);
}

} // namespace

void
tagArtifactPaths(ExperimentConfig &cfg, const std::string &tag)
{
    cfg.timeline_path = tagPath(cfg.timeline_path, tag);
    cfg.metrics_path = tagPath(cfg.metrics_path, tag);
    cfg.error_path = tagPath(cfg.error_path, tag);
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::move(config))
{
    jscale_assert(config_.heap_factor >= 1.0,
                  "heap factor below the minimum heap requirement");
}

std::uint64_t
ExperimentRunner::runSeed(const std::string &app, std::uint32_t threads,
                          bool calibration) const
{
    std::uint64_t s = config_.seed;
    for (const char c : app)
        s = s * 0x100000001b3ULL + static_cast<unsigned char>(c);
    s ^= static_cast<std::uint64_t>(threads) << 32;
    s ^= calibration ? 0xca11'b8a7e5ULL : 0;
    std::uint64_t state = s;
    return splitMix64(state);
}

std::vector<std::uint32_t>
ExperimentRunner::paperThreadCounts() const
{
    const std::vector<std::uint32_t> paper = {1, 2, 4, 8, 16, 24, 32, 48};
    std::vector<std::uint32_t> out;
    for (const auto t : paper) {
        if (t <= config_.machine.totalCores())
            out.push_back(t);
    }
    return out;
}

std::string
ExperimentRunner::claimArtifactPath(const std::string &templ,
                                    const std::string &app,
                                    std::uint32_t threads)
{
    const std::string resolved = substitutePlaceholders(templ, app, threads);
    if (used_artifact_paths_.insert(resolved).second)
        return resolved;

    // Collision (e.g. a sweep with a placeholder-free path): suffix the
    // run identity before the extension, then a serial if still taken.
    std::string stem = resolved;
    std::string ext;
    const auto dot = resolved.find_last_of('.');
    const auto slash = resolved.find_last_of('/');
    if (dot != std::string::npos &&
        (slash == std::string::npos || dot > slash)) {
        stem = resolved.substr(0, dot);
        ext = resolved.substr(dot);
    }
    const std::string base =
        stem + "-" + app + "-t" + std::to_string(threads);
    std::string candidate = base + ext;
    for (int serial = 2; !used_artifact_paths_.insert(candidate).second;
         ++serial) {
        candidate = base + "-" + std::to_string(serial) + ext;
    }
    return candidate;
}

ExperimentRunner::RunPlan
ExperimentRunner::planRun(const AppFactory &factory,
                          const std::string &cache_key,
                          std::uint32_t threads)
{
    RunPlan plan;
    plan.threads = threads;
    plan.heap_capacity =
        config_.heap_override != 0
            ? config_.heap_override
            : static_cast<Bytes>(config_.heap_factor *
                                 static_cast<double>(
                                     minHeapFor(factory, cache_key)));
    plan.app = factory();
    plan.seed = runSeed(plan.app->appName(), threads,
                        /*calibration=*/false);
    if (!config_.timeline_path.empty()) {
        plan.timeline_file = claimArtifactPath(
            config_.timeline_path, plan.app->appName(), threads);
    }
    if (config_.metrics_interval > 0) {
        std::string templ = config_.metrics_path;
        if (templ.empty()) {
            templ = config_.timeline_path.empty()
                        ? "metrics-{app}-t{threads}.csv"
                        : config_.timeline_path + ".metrics.csv";
        }
        plan.metrics_file =
            claimArtifactPath(templ, plan.app->appName(), threads);
    }
    if (!config_.error_path.empty()) {
        plan.error_file = claimArtifactPath(config_.error_path,
                                            plan.app->appName(), threads);
    }
    {
        std::ostringstream key;
        key << plan.app->appName() << "|t" << threads << "|s" << std::hex
            << plan.seed;
        plan.point_key = key.str();
    }
    return plan;
}

std::string
ExperimentRunner::campaignFingerprint() const
{
    std::ostringstream os;
    os << "seed=" << config_.seed << " scale=" << config_.workload_scale
       << " heap=" << config_.heap_factor << "/" << config_.heap_override
       << " machine=" << config_.machine.sockets << "x"
       << config_.machine.cores_per_socket
       << " place=" << static_cast<int>(config_.placement)
       << " gov=" << control::governorModeName(config_.governor.mode)
       << " faults="
       << (config_.faults.spec.empty() ? "-" : config_.faults.spec)
       << " watchdog=" << (config_.watchdog ? 1 : 0)
       << " oracles=" << (config_.oracles ? 1 : 0)
       << " profile=" << (config_.profile ? 1 : 0)
       << " compart=" << (config_.vm.heap.compartmentalized ? 1 : 0)
       << " biased=" << (config_.biased_scheduling ? 1 : 0)
       << " locks=" << jvm::describeLockPolicyConfig(config_.vm.locks)
       << " arrivals="
       << (config_.arrivals.empty() ? "-" : config_.arrivals);
    return os.str();
}

jvm::RunResult
ExperimentRunner::executePlan(RunPlan &plan,
                              const VmAttachHook &attach) const
{
    const std::uint32_t threads = plan.threads;
    jscale_assert(threads >= 1 &&
                      threads <= config_.machine.totalCores(),
                  "thread count ", threads, " exceeds machine cores");
    jvm::ApplicationModel &app = *plan.app;

    sim::Simulation sim(plan.seed);
    machine::Machine mach(config_.machine);
    mach.enableCores(threads, config_.placement);
    os::Scheduler sched(sim, mach, config_.sched);
    // Declared after sched so it is descheduled before the queue dies.
    std::optional<sim::RecurringEvent> rotator;
    if (config_.biased_scheduling) {
        sched.setPolicy(std::make_unique<os::BiasedPolicy>(
            config_.bias_groups, config_.bias_quantum));
        // Phase rotations must re-kick idle cores: one pooled event
        // fires at every phase edge for the whole run.
        rotator.emplace(
            sim.queue(), static_cast<TickDelta>(config_.bias_quantum),
            [&sched] { sched.kickAll(); }, "bias-phase-rotate");
        rotator->start(sim.now() + config_.bias_quantum);
    }

    jvm::VmConfig vm_cfg = config_.vm;
    vm_cfg.heap.capacity = plan.heap_capacity;
    jvm::JavaVm vm(sim, mach, sched, vm_cfg);

    // The VM's one thread-state ledger and one attribution profiler,
    // built only when a consumer is armed: the profiler feeds the blame
    // summary, the latency oracle and the traffic engine; the ledger
    // feeds the profiler and the timeline. Bare runs subscribe nothing.
    const bool wants_profiler =
        config_.profile || config_.oracles || !config_.arrivals.empty();
    std::optional<profile::ThreadStateLedger> ledger;
    std::optional<profile::TaskProfiler> profiler;
    if (wants_profiler || !plan.timeline_file.empty()) {
        ledger.emplace();
        ledger->attach(vm);
    }
    if (wants_profiler) {
        profiler.emplace();
        profiler->attach(vm, *ledger);
    }

    // Open-loop traffic: a seeded arrival process injects requests into
    // the engine's admission queue and workers serve them through an
    // accept loop, replacing the closed loop's pre-filled task pool.
    // The engine adds its task sink before the oracles do (the
    // request-conservation oracle relies on completion probes firing
    // before it sees the closed service window).
    std::unique_ptr<traffic::RequestModel> request_model;
    std::optional<traffic::TrafficEngine> engine;
    std::optional<traffic::OpenLoopApp> open_loop;
    if (!config_.arrivals.empty()) {
        traffic::ArrivalSpec arrival;
        std::string err;
        const bool ok =
            traffic::ArrivalSpec::parse(config_.arrivals, arrival, err);
        jscale_assert(ok, "bad arrival spec: ", err);
        request_model =
            traffic::makeRequestModel(app.appName(), err);
        jscale_assert(request_model != nullptr, err);
        engine.emplace(vm, arrival, *profiler);
        open_loop.emplace(*request_model, *engine);
    }
    jvm::ApplicationModel &run_app = open_loop ? *open_loop : app;

    // Concurrency governor (admission control). Unlike the telemetry
    // taps below it *does* steer the run — that is its job — but its
    // decisions depend only on simulation state, never on host timing.
    std::optional<control::ConcurrencyGovernor> governor;
    if (config_.governor.mode != control::GovernorMode::Off) {
        governor.emplace(sim, vm, config_.governor);
        vm.setTaskAdmission(&*governor);
    }

    // Fault injection and the livelock watchdog run as ordinary sim
    // events, so a faulted run is as deterministic as a clean one.
    std::optional<fault::FaultInjector> injector;
    if (!config_.faults.empty())
        injector.emplace(sim, mach, vm, config_.faults);
    std::optional<fault::RunWatchdog> watchdog;
    if (config_.watchdog)
        watchdog.emplace(sim, vm, config_.watchdog_config);

    // Invariant oracles: pure observers on the probe chains that abort
    // the run (OracleError, an AbortError) at the first violated
    // simulator contract. Armed before any attach hook so test taps
    // see the same chain order as production tools.
    std::optional<check::OracleSuite> oracles;
    if (config_.oracles) {
        oracles.emplace();
        oracles->attach(vm, *profiler);
    }

    // Telemetry taps: a timeline recorder on the probe chains and/or a
    // periodic metric sampler. Both are pure observers — attaching them
    // never changes the run's schedule or results. An artifact that
    // cannot be opened (or fails mid-write) is reported per-run and the
    // run continues without it.
    std::vector<std::string> artifact_errors;
    std::optional<AtomicFileWriter> timeline_writer;
    std::optional<telemetry::Timeline> timeline;
    std::optional<telemetry::TelemetryRecorder> recorder;
    std::optional<telemetry::MetricSampler> sampler;
    if (!plan.timeline_file.empty() &&
        openArtifact(timeline_writer, plan.timeline_file,
                     artifact_errors)) {
        timeline.emplace(timeline_writer->stream());
        recorder.emplace(*timeline);
        recorder->attach(vm, *ledger);
        if (injector) {
            timeline->processName(telemetry::kFaultsPid, "faults");
            timeline->threadName(telemetry::kFaultsPid, 0, "injections");
            telemetry::Timeline *tl = &*timeline;
            injector->setProbe([tl](const char *kind, bool recovery,
                                    const std::string &detail, Ticks now) {
                tl->instant(telemetry::kFaultsPid, 0,
                            std::string(kind) +
                                (recovery ? ".recover" : ".inject"),
                            "fault", now,
                            {telemetry::targ("detail", detail)});
            });
        }
    }
    if (!plan.metrics_file.empty()) {
        sampler.emplace(sim, vm, config_.metrics_interval);
        if (timeline)
            sampler->attachTimeline(&*timeline);
        sampler->start();
    }

    if (attach)
        attach(vm);
    if (injector)
        injector->arm(sim.now());
    if (watchdog)
        watchdog->start(sim.now());
    jvm::RunResult r = vm.run(run_app, threads);

    if (engine)
        r.traffic = engine->summary();
    if (oracles)
        oracles->finishRun(sim.now());
    // The profiler's blame totals, histograms and slowest-task records
    // land in RunResult::profile; the run's primary stats stay
    // byte-identical to an unprofiled run.
    if (profiler)
        profiler->finishRun(sim.now());
    if (config_.profile)
        r.profile = profiler->summary(config_.profile_topk);
    if (injector) {
        r.faults = injector->summary();
        r.faults.tasks_reassigned = vm.tasksReassigned();
    }
    // Final sampler row before the timeline closes (it mirrors there).
    if (sampler)
        sampler->finish(sim.now());
    if (recorder) {
        recorder->finish(sim.now());
        recorder->detach();
        if (config_.profile)
            telemetry::emitProfileTracks(*timeline, r.profile, sim.now());
        timeline->finish();
        commitArtifact(timeline_writer, artifact_errors);
        r.timeline_file = plan.timeline_file;
        r.timeline_events = timeline->events();
    }
    if (sampler) {
        std::optional<AtomicFileWriter> csv;
        if (openArtifact(csv, plan.metrics_file, artifact_errors)) {
            sampler->writeCsv(csv->stream());
            commitArtifact(csv, artifact_errors);
            r.metrics_file = plan.metrics_file;
            r.metric_rows = sampler->samples().size();
        }
    }
    r.artifact_errors = std::move(artifact_errors);
    return r;
}

std::vector<jvm::RunResult>
ExperimentRunner::executePlans(std::vector<RunPlan> plans)
{
    const std::size_t requested =
        config_.jobs != 0 ? config_.jobs : ThreadPool::hardwareConcurrency();
    const std::size_t jobs =
        std::max<std::size_t>(1, std::min(requested, plans.size()));

    // Shard slice and shared result cache. Every process plans the
    // whole campaign (identical artifact claiming everywhere); the
    // slice filter and cache decide per point what actually runs here.
    // Re-running a campaign over the same cache is its resume: every
    // completed point comes back as the full result it produced.
    const ShardSpec shard{config_.shard_index, config_.shard_count};
    std::optional<RunCache> cache;
    if (!config_.run_cache_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(config_.run_cache_dir, ec);
        cache.emplace(config_.run_cache_dir, campaignFingerprint());
    }
    CampaignPointStats &points = campaignPointStats();

    std::vector<std::function<jvm::RunResult()>> tasks;
    tasks.reserve(plans.size());
    for (std::size_t i = 0; i < plans.size(); ++i) {
        tasks.push_back([this, &plans, i, &shard, &cache,
                         &points]() -> jvm::RunResult {
            RunPlan &plan = plans[i];
            // Salvage first: a point persisted by any earlier worker —
            // deterministic failures included — renders from the cache
            // instead of re-simulating.
            if (cache) {
                jvm::RunResult cached;
                if (cache->load(plan.point_key, cached)) {
                    ++points.salvaged;
                    return cached;
                }
            }
            const auto marker = [&plan]() {
                jvm::RunResult m;
                m.app_name = plan.app->appName();
                m.threads = plan.threads;
                return m;
            };
            if (!shard.owns(plan.point_key)) {
                ++points.skipped;
                jvm::RunResult m = marker();
                m.skipped = true;
                return m;
            }
            if (config_.merge_strict) {
                // Assembling a partial campaign: a gap is an honest
                // failure row, never a silent multi-minute re-run.
                ++points.missing;
                jvm::RunResult m = marker();
                m.run_error =
                    "missing from shard result cache (incomplete "
                    "campaign)";
                return m;
            }
            jvm::RunResult r = executePlan(plan, {});
            ++points.executed;
            // Persist before moving on: a worker killed after this
            // point still contributes it to a later retry or merge.
            // The chaos crash point fires inside store(), right after
            // the record is durable.
            if (cache)
                cache->store(plan.point_key, r);
            return r;
        });
    }

    // Isolated execution for every batch (sequential included), so a
    // run that aborts fails the same way at any jobs setting: it
    // becomes an error artifact plus a failed() marker, and the rest
    // of the batch completes.
    std::vector<RunOutcome> outcomes =
        ParallelExecutor(jobs).runIsolated(std::move(tasks));

    std::vector<jvm::RunResult> results;
    results.reserve(plans.size());
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        RunOutcome &o = outcomes[i];
        if (o.ok) {
            results.push_back(std::move(o.result));
            continue;
        }
        ++points.failed;
        inform("run ", plans[i].point_key, " failed: ", o.error);
        if (!plans[i].error_file.empty()) {
            std::vector<std::string> open_errors;
            std::optional<AtomicFileWriter> err_os;
            if (openArtifact(err_os, plans[i].error_file, open_errors)) {
                err_os->stream()
                    << "run: " << plans[i].point_key << '\n'
                    << "error: " << o.error << '\n';
                commitArtifact(err_os, open_errors);
            }
            for (const std::string &e : open_errors)
                inform(e);
        }
        jvm::RunResult marker;
        marker.app_name = plans[i].app->appName();
        marker.threads = plans[i].threads;
        marker.run_error = o.error;
        // Failed runs are cached too: a retry does not repeat a
        // deterministic abort, and the merge renders the failure row
        // exactly as a single-process run would.
        if (cache && shard.owns(plans[i].point_key))
            cache->store(plans[i].point_key, marker);
        results.push_back(std::move(marker));
    }
    return results;
}

Bytes
ExperimentRunner::minHeapFor(const AppFactory &factory,
                             const std::string &cache_key)
{
    auto it = min_heap_cache_.find(cache_key);
    if (it != min_heap_cache_.end())
        return it->second;

    // Calibration: generous heap, reference thread count, helpers off
    // for speed. The minimum requirement is the smallest heap whose old
    // generation holds the peak live footprint.
    const std::uint32_t threads = std::min(
        config_.calibration_threads, config_.machine.totalCores());

    sim::Simulation sim(runSeed(cache_key, threads, /*calibration=*/true));
    machine::Machine mach(config_.machine);
    mach.enableCores(threads);
    os::Scheduler sched(sim, mach, config_.sched);

    jvm::VmConfig vm_cfg = config_.vm;
    vm_cfg.heap.capacity = 512 * units::MiB;
    vm_cfg.heap.compartmentalized = false;
    jvm::JavaVm vm(sim, mach, sched, vm_cfg);
    auto app = factory();
    const jvm::RunResult r = vm.run(*app, threads);

    const double old_fraction = 1.0 - config_.vm.heap.young_fraction;
    Bytes min_heap = static_cast<Bytes>(
        static_cast<double>(r.heap.peak_live_bytes) / old_fraction * 1.10);
    min_heap = std::max<Bytes>(min_heap, 1 * units::MiB);
    min_heap_cache_[cache_key] = min_heap;
    inform("min heap for ", cache_key, ": ", formatBytes(min_heap),
           " (peak live ", formatBytes(r.heap.peak_live_bytes), ")");
    return min_heap;
}

Bytes
ExperimentRunner::minHeapRequirement(const std::string &app_name)
{
    const double scale = config_.workload_scale;
    return minHeapFor(
        [&app_name, scale] {
            return workload::makeDacapoApp(app_name, scale);
        },
        app_name);
}

jvm::RunResult
ExperimentRunner::runApp(const std::string &app_name,
                         std::uint32_t threads, const VmAttachHook &attach)
{
    const double scale = config_.workload_scale;
    return runCustom(
        [&app_name, scale] {
            return workload::makeDacapoApp(app_name, scale);
        },
        app_name, threads, attach);
}

jvm::RunResult
ExperimentRunner::runCustom(const AppFactory &factory,
                            const std::string &cache_key,
                            std::uint32_t threads,
                            const VmAttachHook &attach)
{
    RunPlan plan = planRun(factory, cache_key, threads);
    return executePlan(plan, attach);
}

std::vector<jvm::RunResult>
ExperimentRunner::runTenants(const std::vector<traffic::TenantSpec> &specs,
                             const VmAttachHook &attach)
{
    jscale_assert(!specs.empty(), "need at least one tenant");
    std::uint32_t total_threads = 0;
    std::ostringstream ident;
    for (const traffic::TenantSpec &spec : specs) {
        total_threads += spec.threads;
        ident << spec.describe() << ";";
    }
    const std::uint32_t cores =
        std::min(total_threads, config_.machine.totalCores());

    sim::Simulation sim(runSeed(ident.str(), total_threads,
                                /*calibration=*/false));
    machine::Machine mach(config_.machine);
    mach.enableCores(cores, config_.placement);
    os::Scheduler sched(sim, mach, config_.sched);

    traffic::TenantHost host(sim, mach, sched);
    for (const traffic::TenantSpec &spec : specs) {
        jvm::VmConfig vm_cfg = config_.vm;
        vm_cfg.heap.capacity =
            config_.heap_override != 0
                ? config_.heap_override
                : static_cast<Bytes>(config_.heap_factor *
                                     static_cast<double>(
                                         minHeapRequirement(spec.app)));
        std::string err;
        const bool ok = host.addTenant(spec, vm_cfg, err);
        jscale_assert(ok, err);
    }

    // Per-tenant oracle suites on each tenant's own profiler (the host
    // owns one ledger and one profiler per VM) — the probe chains are
    // per VM, so neighbour tenants are invisible to them apart from the
    // shared scheduler stream (which both filter by scheduling group).
    std::vector<std::unique_ptr<check::OracleSuite>> oracles;
    if (config_.oracles) {
        for (std::size_t i = 0; i < host.tenantCount(); ++i) {
            oracles.push_back(std::make_unique<check::OracleSuite>());
            oracles.back()->attach(host.vm(i), host.profiler(i));
        }
    }

    // Metric sampling: one sampler on tenant 0's VM, with per-tenant
    // queue-depth and in-flight gauges appended — the columns exist
    // only on multi-tenant runs, so single-tenant CSV schemas never
    // change shape.
    std::vector<std::string> artifact_errors;
    std::optional<telemetry::MetricSampler> sampler;
    std::string metrics_file;
    if (config_.metrics_interval > 0) {
        std::string templ = config_.metrics_path;
        if (templ.empty())
            templ = "metrics-{app}-t{threads}.csv";
        metrics_file =
            claimArtifactPath(templ, "tenants", total_threads);
        sampler.emplace(sim, host.vm(0), config_.metrics_interval);
        if (host.tenantCount() > 1) {
            for (std::size_t i = 0; i < host.tenantCount(); ++i) {
                traffic::TrafficEngine *eng = &host.engine(i);
                const std::string prefix =
                    "tenant" + std::to_string(i) + "_" + specs[i].app;
                sampler->addGauge(prefix + "_queued",
                                  [eng] { return eng->queueDepth(); });
                sampler->addGauge(prefix + "_inflight",
                                  [eng] { return eng->inflightCount(); });
            }
        }
        sampler->start();
    }

    if (attach) {
        for (std::size_t i = 0; i < host.tenantCount(); ++i)
            attach(host.vm(i));
    }
    std::vector<jvm::RunResult> results = host.run();

    for (auto &suite : oracles)
        suite->finishRun(sim.now());
    if (config_.profile) {
        for (std::size_t i = 0; i < results.size(); ++i)
            results[i].profile =
                host.profiler(i).summary(config_.profile_topk);
    }
    if (sampler) {
        sampler->finish(sim.now());
        std::optional<AtomicFileWriter> csv;
        if (openArtifact(csv, metrics_file, artifact_errors)) {
            sampler->writeCsv(csv->stream());
            commitArtifact(csv, artifact_errors);
            for (jvm::RunResult &r : results) {
                r.metrics_file = metrics_file;
                r.metric_rows = sampler->samples().size();
            }
        }
    }
    for (jvm::RunResult &r : results)
        r.artifact_errors = artifact_errors;
    return results;
}

std::vector<jvm::RunResult>
ExperimentRunner::sweep(const std::string &app_name,
                        const std::vector<std::uint32_t> &threads)
{
    const double scale = config_.workload_scale;
    const AppFactory factory = [&app_name, scale] {
        return workload::makeDacapoApp(app_name, scale);
    };
    std::vector<RunPlan> plans;
    plans.reserve(threads.size());
    for (const auto t : threads)
        plans.push_back(planRun(factory, app_name, t));
    return executePlans(std::move(plans));
}

std::map<std::string, std::vector<jvm::RunResult>>
ExperimentRunner::sweepApps(const std::vector<std::string> &apps,
                            const std::vector<std::uint32_t> &threads,
                            const SweepProgress &progress)
{
    // Plan the full (app x threads) cross product up front — the
    // calibration runs and artifact claims happen here, on this thread,
    // in the same order the sequential per-app sweeps would do them —
    // then execute the whole batch on the worker pool at once.
    const double scale = config_.workload_scale;
    std::vector<RunPlan> plans;
    plans.reserve(apps.size() * threads.size());
    for (const auto &app_name : apps) {
        if (progress)
            progress(app_name);
        const AppFactory factory = [&app_name, scale] {
            return workload::makeDacapoApp(app_name, scale);
        };
        for (const auto t : threads)
            plans.push_back(planRun(factory, app_name, t));
    }

    std::vector<jvm::RunResult> flat = executePlans(std::move(plans));
    std::map<std::string, std::vector<jvm::RunResult>> by_app;
    std::size_t next = 0;
    for (const auto &app_name : apps) {
        auto &runs = by_app[app_name];
        for (std::size_t i = 0; i < threads.size(); ++i)
            runs.push_back(std::move(flat[next++]));
    }
    return by_app;
}

std::vector<jvm::RunResult>
ExperimentRunner::runReplicated(const std::string &app_name,
                                std::uint32_t threads,
                                std::uint32_t replicas)
{
    jscale_assert(replicas >= 1, "need at least one replica");
    const double scale = config_.workload_scale;
    const AppFactory factory = [&app_name, scale] {
        return workload::makeDacapoApp(app_name, scale);
    };
    std::vector<RunPlan> plans;
    plans.reserve(replicas);
    const std::uint64_t base_seed = config_.seed;
    for (std::uint32_t i = 0; i < replicas; ++i) {
        // Derive a distinct campaign seed per replica; restore after.
        config_.seed = base_seed + 0x9e3779b97f4a7c15ULL * (i + 1);
        plans.push_back(planRun(factory, app_name, threads));
    }
    config_.seed = base_seed;
    return executePlans(std::move(plans));
}

} // namespace jscale::core
