#include "core/experiment.hh"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>

#include "base/atomic_file.hh"
#include "base/error.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "core/rig.hh"
#include "core/shard.hh"
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

/** Metrics CSV path template of @p cfg (placeholders unresolved). */
std::string
metricsTemplate(const ExperimentConfig &cfg)
{
    if (!cfg.metrics_path.empty())
        return cfg.metrics_path;
    return cfg.timeline_path.empty() ? "metrics-{app}-t{threads}.csv"
                                     : cfg.timeline_path + ".metrics.csv";
}

/** Per-run seed derived from the arm's seed, app and thread count. */
std::uint64_t
runSeed(const ExperimentConfig &cfg, const std::string &app,
        std::uint32_t threads, bool calibration)
{
    std::uint64_t s = cfg.seed;
    for (const char c : app)
        s = s * 0x100000001b3ULL + static_cast<unsigned char>(c);
    s ^= static_cast<std::uint64_t>(threads) << 32;
    s ^= calibration ? 0xca11'b8a7e5ULL : 0;
    std::uint64_t state = s;
    return splitMix64(state);
}

/** Factory of DaCapo app @p app_name at the arm's scale. */
AppFactory
dacapoFactory(const ExperimentConfig &cfg, const std::string &app_name)
{
    return [app_name, scale = cfg.workload_scale] {
        return workload::makeDacapoApp(app_name, scale);
    };
}

/**
 * The point of a model named @p name: its seed derives from (arm seed,
 * name, threads), its key is "<name>|t<threads>|s<hex seed>" and its
 * heap is calibrated under @p name.
 */
CampaignPoint
namedPoint(ArmConfig arm, AppFactory factory, const std::string &name,
           std::uint32_t threads)
{
    CampaignPoint p;
    p.seed = runSeed(*arm, name, threads, /*calibration=*/false);
    std::ostringstream key;
    key << name << "|t" << threads << "|s" << std::hex << p.seed;
    p.key = key.str();
    p.factory = std::move(factory);
    p.threads = threads;
    p.arm = std::move(arm);
    p.calibration = name;
    return p;
}

std::string
fingerprintOf(const ExperimentConfig &c)
{
    // Every setting that can change a run record. Left out on purpose:
    // host parallelism (jobs), the shard slice, the cache directory,
    // merge mode and the artifact paths (timeline, metrics, errors).
    std::ostringstream os;
    os.precision(17);
    const auto kv = [&os](const char *key, const auto &...vs) {
        os << (os.tellp() > 0 ? " " : "") << key;
        const char *sep = "=";
        ((os << sep << vs, sep = "/"), ...);
    };
    kv("seed", c.seed);
    kv("scale", c.workload_scale);
    kv("heap", c.heap_factor, c.heap_override, c.calibration_threads);
    kv("place", static_cast<int>(c.placement));
    kv("biased", c.biased_scheduling, c.bias_groups, c.bias_quantum);
    const machine::MachineConfig &m = c.machine;
    kv("machine", m.name, m.sockets, m.cores_per_socket, m.freq_ghz,
       m.mem_per_node, m.numa_remote_factor, m.mem_bandwidth_bytes_per_ns,
       m.context_switch_cost, m.migration_cost);
    kv("sched", c.sched.quantum, c.sched.min_poll_latency,
       c.sched.max_poll_latency, c.sched.stealing);
    const jvm::VmConfig &vm = c.vm;
    const jvm::HeapConfig &h = vm.heap;
    kv("heap_geometry", h.capacity, h.young_fraction, h.survivor_fraction,
       int{h.tenure_threshold}, h.full_gc_trigger, h.tlab_size);
    kv("compart", h.compartmentalized);
    const jvm::GcCostParams &g = vm.gc_costs;
    kv("gc_costs", g.minor_base, g.root_scan_per_thread, g.copy_bw_per_thread,
       g.parallel_alpha, g.full_base, g.mark_bw_per_thread,
       g.compact_bw_per_thread, g.scan_cost_per_object, g.local_base);
    kv("collector", static_cast<int>(vm.collector), vm.concurrent.initiating_occupancy,
       vm.concurrent.mark_bw, vm.concurrent.mark_chunk,
       vm.concurrent.remark_base);
    const jvm::AdaptiveSizeConfig &ad = vm.adaptive;
    kv("adaptive", ad.enabled, ad.gc_time_ratio_target, ad.min_young_fraction,
       ad.max_young_fraction, ad.step, ad.old_headroom);
    const jvm::VmCosts &vc = vm.costs;
    kv("vm_costs", vc.alloc_base, vc.alloc_per_byte, vc.monitor_enter,
       vc.monitor_exit, vc.channel_op, vc.task_done, vc.gc_retry,
       vc.thread_end);
    const jvm::LockPolicyConfig &l = vm.locks;
    kv("locks", jvm::lockPolicyName(l.policy), l.barge_window,
       l.active_target, l.rotation_period, l.lcr_min_active, l.lcr_max_active,
       l.handoff_base, l.coherence_cost, l.circulation_window);
    const jvm::HelperConfig &hc = vm.helpers;
    kv("helpers", vm.enable_helpers, hc.jit_threads, hc.periodic_daemon,
       hc.jit_burst_mean, hc.jit_sleep_mean_initial, hc.jit_backoff,
       hc.periodic_interval, hc.periodic_burst);
    kv("vm", vm.gc_threads, vm.tenant, vm.max_run_time);
    const control::GovernorConfig &gov = c.governor;
    kv("gov", control::governorModeName(gov.mode), gov.interval,
       gov.min_active, gov.tolerance, gov.pressure_limit,
       gov.calib_ticks_per_level);
    kv("faults", c.faults.spec);
    kv("watchdog", c.watchdog, c.watchdog_config.interval,
       c.watchdog_config.stalled_limit);
    kv("oracles", c.oracles);
    kv("profile", c.profile, c.profile_topk);
    kv("metrics", c.metrics_interval);
    kv("arrivals", c.arrivals);
    return os.str();
}

} // namespace

CampaignPoint
dacapoPoint(ArmConfig arm, const std::string &app, std::uint32_t threads)
{
    AppFactory factory = dacapoFactory(*arm, app);
    return namedPoint(std::move(arm), std::move(factory), app, threads);
}

void
tagArtifactPaths(ExperimentConfig &cfg, const std::string &tag)
{
    // Left implicit, the metrics default would be the same for every arm.
    if (cfg.timeline_path.empty())
        cfg.metrics_path = metricsTemplate(cfg);
    cfg.timeline_path = tagPath(cfg.timeline_path, tag);
    cfg.metrics_path = tagPath(cfg.metrics_path, tag);
    cfg.error_path = tagPath(cfg.error_path, tag);
}

ExperimentRunner::ExperimentRunner(ExperimentConfig config)
    : config_(std::make_shared<const ExperimentConfig>(std::move(config)))
{
    jscale_assert(config_->heap_factor >= 1.0,
                  "heap factor below the minimum heap requirement");
}

std::vector<std::uint32_t>
ExperimentRunner::paperThreadCounts() const
{
    const std::vector<std::uint32_t> paper = {1, 2, 4, 8, 16, 24, 32, 48};
    std::vector<std::uint32_t> out;
    for (const auto t : paper) {
        if (t <= config_->machine.totalCores())
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
ExperimentRunner::planRun(const CampaignPoint &point, std::string fingerprint)
{
    const ExperimentConfig &cfg = *point.arm;
    jscale_assert(!point.calibration.empty() || cfg.heap_override != 0,
                  "point '", point.key, "' must calibrate or fix its heap");
    RunPlan plan;
    plan.arm = point.arm;
    plan.fingerprint = std::move(fingerprint);
    const Bytes heap = heapCapacity(cfg, point.factory, point.calibration);
    plan.app = point.factory();
    const std::string app = plan.app->appName();
    RigInputs &in = plan.inputs;
    in.seed = point.seed;
    in.vms.push_back({plan.app.get(), app, point.threads, heap, std::nullopt});
    if (!cfg.arrivals.empty()) {
        std::string err;
        const bool ok = traffic::ArrivalSpec::parse(
            cfg.arrivals, in.vms.back().arrival.emplace(), err);
        jscale_assert(ok, "bad arrival spec: ", err);
    }
    if (!cfg.timeline_path.empty())
        in.timeline_file =
            claimArtifactPath(cfg.timeline_path, app, point.threads);
    if (cfg.metrics_interval > 0)
        in.metrics_file =
            claimArtifactPath(metricsTemplate(cfg), app, point.threads);
    if (!cfg.error_path.empty())
        plan.error_file =
            claimArtifactPath(cfg.error_path, app, point.threads);
    plan.point_key = point.key;
    plan.probe = point.probe;
    return plan;
}

void
ExperimentRunner::RunPlan::mark(jvm::RunResult &r) const
{
    r.app_name = app->appName();
    r.threads = inputs.vms.front().threads;
}

std::string
ExperimentRunner::campaignFingerprint() const
{
    return fingerprintOf(*config_);
}


void
ExperimentRunner::executePlan(const RunPlan &plan, const VmAttachHook &attach,
                              jvm::RunResult &out)
{
    const std::uint32_t threads = plan.inputs.vms.front().threads;
    jscale_assert(threads >= 1 && threads <= plan.arm->machine.totalCores(),
                  "thread count ", threads, " exceeds machine cores");
    // Declared before the rig: the VM dies before a listener on its
    // chain does.
    std::unique_ptr<jvm::RuntimeListener> probe;
    RunRig rig(*plan.arm, plan.inputs);
    if (plan.probe)
        probe = plan.probe(rig);
    rig.run({&out, 1}, [&](jvm::JavaVm &vm) {
        if (probe)
            vm.listeners().add(probe.get());
        if (attach)
            attach(vm);
    });
}

std::vector<jvm::RunResult>
ExperimentRunner::executePlans(const std::vector<RunPlan> &plans)
{
    // Execution settings are the runner's; each plan brings its arm.
    const ExperimentConfig &exec = *config_;
    const std::size_t requested =
        exec.jobs != 0 ? exec.jobs : ThreadPool::hardwareConcurrency();
    const std::size_t jobs = std::min(requested, plans.size());

    // Shard slice and shared result cache. Every process plans the
    // whole campaign (identical artifact claiming everywhere); the
    // slice filter and cache decide per point what actually runs here.
    // Re-running a campaign over the same cache is its resume: every
    // completed point comes back as the full result it produced. Each
    // point's record is bound to its own arm's fingerprint.
    const ShardSpec shard{exec.shard_index, exec.shard_count};
    const bool cached = !exec.run_cache_dir.empty();
    std::error_code ec;
    if (cached)
        std::filesystem::create_directories(exec.run_cache_dir, ec);
    const auto cacheOf = [&exec](const RunPlan &plan) {
        return RunCache(exec.run_cache_dir, plan.fingerprint);
    };
    CampaignPointStats &points = campaignPointStats();

    // Each point resolves straight into its result slot. A point that
    // throws leaves its error next to the slot instead, so an aborted
    // run fails the same way at any jobs setting and the rest of the
    // batch completes.
    std::vector<jvm::RunResult> results(plans.size());
    std::vector<std::optional<std::string>> errors(plans.size());
    const auto resolve = [&](std::size_t i) {
        const RunPlan &plan = plans[i];
        jvm::RunResult &r = results[i];
        try {
            // Salvage first: a point persisted by any earlier worker —
            // deterministic failures included — renders from the cache
            // instead of re-simulating.
            if (cached && cacheOf(plan).load(plan.point_key, r)) {
                ++points.salvaged;
            } else if (!shard.owns(plan.point_key)) {
                ++points.skipped;
                plan.mark(r);
                r.skipped = true;
            } else if (exec.merge_strict) {
                // Assembling a partial campaign: a gap is an honest
                // failure row, never a silent multi-minute re-run.
                ++points.missing;
                plan.mark(r);
                r.run_error = kMissingPointError;
            } else {
                executePlan(plan, {}, r);
                ++points.executed;
                // Persist before moving on: a worker killed after this
                // point still contributes it to a later retry or merge.
                // The chaos crash point fires inside store(), right
                // after the record is durable.
                if (cached)
                    cacheOf(plan).store(plan.point_key, r);
            }
        } catch (const std::exception &e) {
            errors[i] = e.what();
        } catch (...) {
            errors[i] = "unknown error";
        }
    };
    if (jobs <= 1) {
        for (std::size_t i = 0; i < plans.size(); ++i)
            resolve(i);
    } else {
        ThreadPool pool(jobs);
        for (std::size_t i = 0; i < plans.size(); ++i)
            pool.submit([i, &resolve] { resolve(i); });
        pool.wait();
    }

    // Failures in plan order, so the narration is the same at any jobs.
    for (std::size_t i = 0; i < plans.size(); ++i) {
        if (!errors[i])
            continue;
        const RunPlan &plan = plans[i];
        const std::string &error = *errors[i];
        ++points.failed;
        inform("run ", plan.point_key, " failed: ", error);
        if (!plan.error_file.empty()) {
            std::vector<std::string> open_errors;
            std::optional<AtomicFileWriter> err_os;
            if (openArtifact(err_os, plan.error_file, open_errors)) {
                err_os->stream() << "run: " << plan.point_key << '\n'
                                 << "error: " << error << '\n';
                commitArtifact(err_os, open_errors);
            }
            for (const std::string &e : open_errors)
                inform(e);
        }
        jvm::RunResult &marker = results[i];
        marker = {};
        plan.mark(marker);
        marker.run_error = error;
        // Failed runs are cached too: a retry does not repeat a
        // deterministic abort, and the merge renders the failure row
        // exactly as a single-process run would.
        if (cached && shard.owns(plan.point_key))
            cacheOf(plan).store(plan.point_key, marker);
    }
    return results;
}

Bytes
ExperimentRunner::minHeapFor(const ExperimentConfig &arm,
                             const AppFactory &factory,
                             const std::string &cache_key)
{
    auto it = min_heap_cache_.find(cache_key);
    if (it != min_heap_cache_.end())
        return it->second;

    // Calibration: a generous flat heap, the reference thread count and
    // the default placement, with nothing attached that observes or
    // steers the run. The minimum requirement is the smallest heap
    // whose old generation holds the peak live footprint. So every arm
    // that differs only in what is cleared here gets the same heap.
    const std::uint32_t threads =
        std::min(arm.calibration_threads, arm.machine.totalCores());
    ExperimentConfig calib = arm;
    calib.placement = machine::Machine::EnablePolicy::Compact;
    calib.vm.heap.compartmentalized = false;
    calib.biased_scheduling = false;
    calib.governor.mode = control::GovernorMode::Off;
    calib.faults = {};
    calib.watchdog = calib.oracles = calib.profile = false;
    const auto app = factory();
    RunRig rig(calib, {runSeed(arm, cache_key, threads, /*calibration=*/true),
                       {{app.get(), app->appName(), threads,
                         512 * units::MiB, std::nullopt}}});
    jvm::RunResult r;
    rig.run({&r, 1});

    const double old_fraction = 1.0 - arm.vm.heap.young_fraction;
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
    return minHeapFor(*config_, dacapoFactory(*config_, app_name),
                      app_name);
}

Bytes
ExperimentRunner::heapCapacity(const std::string &app_name)
{
    return heapCapacity(*config_, dacapoFactory(*config_, app_name),
                        app_name);
}

Bytes
ExperimentRunner::heapCapacity(const ExperimentConfig &arm,
                               const AppFactory &factory,
                               const std::string &cache_key)
{
    if (arm.heap_override != 0)
        return arm.heap_override;
    return static_cast<Bytes>(
        arm.heap_factor *
        static_cast<double>(minHeapFor(arm, factory, cache_key)));
}

jvm::RunResult
ExperimentRunner::runApp(const std::string &app_name,
                         std::uint32_t threads, const VmAttachHook &attach)
{
    return runPoint(dacapoPoint(config_, app_name, threads), attach);
}

jvm::RunResult
ExperimentRunner::runCustom(const AppFactory &factory,
                            const std::string &cache_key,
                            std::uint32_t threads,
                            const VmAttachHook &attach)
{
    return runPoint(namedPoint(config_, factory, cache_key, threads),
                    attach);
}

jvm::RunResult
ExperimentRunner::runPoint(const CampaignPoint &point,
                           const VmAttachHook &attach)
{
    // A single run never touches the cache, so it needs no fingerprint.
    jvm::RunResult r;
    executePlan(planRun(point, {}), attach, r);
    return r;
}

std::vector<jvm::RunResult>
ExperimentRunner::runTenants(const std::vector<traffic::TenantSpec> &specs,
                             const VmAttachHook &attach)
{
    const ExperimentConfig &cfg = *config_;
    jscale_assert(!specs.empty(), "need at least one tenant");
    jscale_assert(!cfg.biased_scheduling && cfg.faults.empty() &&
                      cfg.timeline_path.empty(),
                  "tenant runs take no bias rotation, fault plan or "
                  "timeline");
    RigInputs in;
    std::uint32_t total_threads = 0;
    std::ostringstream ident;
    for (const traffic::TenantSpec &spec : specs) {
        total_threads += spec.threads;
        ident << spec.describe() << ";";
        in.vms.push_back({nullptr, spec.app, spec.threads,
                          heapCapacity(spec.app), spec.arrival});
    }
    in.seed = runSeed(cfg, ident.str(), total_threads, /*calibration=*/false);
    if (cfg.metrics_interval > 0) {
        in.metrics_file =
            claimArtifactPath(metricsTemplate(cfg), "tenants", total_threads);
    }
    std::vector<jvm::RunResult> results(in.vms.size());
    RunRig rig(cfg, std::move(in));
    rig.run(results, attach);
    return results;
}

std::vector<jvm::RunResult>
ExperimentRunner::runPoints(const std::vector<CampaignPoint> &points)
{
    std::vector<RunPlan> plans;
    plans.reserve(points.size());
    for (const CampaignPoint &p : points)
        plans.push_back(planRun(p, fingerprintOf(*p.arm)));
    return executePlans(plans);
}

std::vector<jvm::RunResult>
ExperimentRunner::sweep(const std::string &app_name,
                        const std::vector<std::uint32_t> &threads)
{
    return sweepApps({app_name}, threads).at(app_name);
}

std::map<std::string, std::vector<jvm::RunResult>>
ExperimentRunner::sweepApps(const std::vector<std::string> &apps,
                            const std::vector<std::uint32_t> &threads)
{
    std::vector<CampaignPoint> points;
    points.reserve(apps.size() * threads.size());
    for (const auto &app_name : apps) {
        for (const auto t : threads)
            points.push_back(dacapoPoint(config_, app_name, t));
    }
    std::vector<jvm::RunResult> flat = runPoints(points);
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
    // Each replica is an arm with its own derived seed; all of them
    // keep the campaign's fingerprint, so their records share it.
    const std::string fingerprint = campaignFingerprint();
    std::vector<RunPlan> plans;
    plans.reserve(replicas);
    for (std::uint32_t i = 0; i < replicas; ++i) {
        ExperimentConfig replica = *config_;
        replica.seed = config_->seed + 0x9e3779b97f4a7c15ULL * (i + 1);
        plans.push_back(planRun(
            dacapoPoint(
                std::make_shared<const ExperimentConfig>(std::move(replica)),
                app_name, threads),
            fingerprint));
    }
    return executePlans(plans);
}

} // namespace jscale::core
