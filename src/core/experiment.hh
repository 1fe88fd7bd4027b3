/**
 * @file
 * ExperimentRunner: reproduces the paper's methodology end to end.
 *
 * For each run it builds a fresh simulated machine (paper preset:
 * 4 x AMD 6168, 48 cores), enables exactly as many cores as application
 * threads, sizes the heap at heap_factor (default 3x) times the
 * application's measured minimum heap requirement (found by a
 * calibration run, cached per app), configures the throughput collector
 * with one GC worker per enabled core, and executes the application to
 * completion, returning the full RunResult.
 */

#ifndef JSCALE_CORE_EXPERIMENT_HH
#define JSCALE_CORE_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "base/units.hh"
#include "control/governor.hh"
#include "fault/fault.hh"
#include "fault/watchdog.hh"
#include "jvm/runtime/app.hh"
#include "jvm/runtime/vm.hh"
#include "machine/machine.hh"
#include "os/scheduler.hh"
#include "traffic/arrival.hh"
#include "traffic/tenancy.hh"

namespace jscale::core {

/** Configuration of one experiment campaign. */
struct ExperimentConfig
{
    /** Master seed; per-run streams are derived from (seed, app, T). */
    std::uint64_t seed = 42;
    machine::MachineConfig machine = machine::Machine::amd6168_4p48c();
    jvm::VmConfig vm;
    os::SchedulerConfig sched;
    /** Heap = heap_factor x minimum heap requirement (paper: 3x). */
    double heap_factor = 3.0;
    /** Non-zero overrides automatic heap sizing. */
    Bytes heap_override = 0;
    /** Thread count of the min-heap calibration run. */
    std::uint32_t calibration_threads = 4;
    /** Core-enabling placement (paper: compact socket fill). */
    machine::Machine::EnablePolicy placement =
        machine::Machine::EnablePolicy::Compact;
    /** Work-volume multiplier passed to the DaCapo factory. */
    double workload_scale = 1.0;
    /** Enable the paper's future-work biased (phase-staggered)
     *  scheduling. */
    bool biased_scheduling = false;
    std::uint32_t bias_groups = 4;
    Ticks bias_quantum = 2 * units::MS;

    /**
     * Concurrency governor (mode Off = classic ungoverned runs). Each
     * run gets its own governor instance whose decisions derive from
     * simulation state alone, so governed sweeps remain byte-identical
     * at any jobs setting.
     */
    control::GovernorConfig governor;

    /**
     * Host worker threads for sweeps/replications (0 = one per host
     * core, 1 = sequential). Each sweep point is an independent
     * simulation with its own derived seed and pre-claimed artifact
     * paths, so any jobs value produces byte-identical results —
     * parallelism only changes wall-clock time.
     */
    std::uint32_t jobs = 0;

    /** @name Robustness: fault injection, watchdog, result cache */
    /** @{ */
    /**
     * Fault schedule injected into every run (empty = none). The plan
     * executes as ordinary simulation events, so a faulted sweep stays
     * byte-identical at any jobs setting.
     */
    fault::FaultPlan faults;
    /** Arm the sim-time livelock watchdog on every run. */
    bool watchdog = false;
    fault::WatchdogConfig watchdog_config;
    /**
     * Arm the invariant oracle suite (check::OracleSuite) on every run.
     * A violation aborts that run the way a watchdog timeout does: an
     * error artifact plus a failed() marker, with the rest of the
     * sweep completing.
     */
    bool oracles = false;
    /**
     * Per-run error-artifact path template for failed (aborted) runs;
     * "{app}"/"{threads}" placeholders as for timelines. Empty
     * disables error artifacts.
     */
    std::string error_path = "jscale-errors/{app}-t{threads}.error.txt";
    /**
     * Sharded campaigns: with shard_count > 1 this process still plans
     * every run (so artifact claiming and de-collision are identical in
     * every worker) but executes only the slice hashing to shard_index;
     * out-of-slice runs return skipped markers. Assignment is
     * position-independent (base/chaos.hh shardOfKey on the point key),
     * so all workers and the merge step agree on ownership.
     */
    std::uint32_t shard_index = 0;
    std::uint32_t shard_count = 1;
    /**
     * Shared per-point result cache directory (empty = disabled). Every
     * completed run — deterministic failures included — is persisted as
     * an atomic record; any later process re-running the same campaign
     * salvages cache hits instead of re-simulating. That one mechanism
     * is the resume path, the crash-retry path and the byte-identical
     * merge.
     */
    std::string run_cache_dir;
    /**
     * Merge mode: a cache miss becomes an honest "missing" failure
     * marker instead of re-executing, so assembling a partial campaign
     * never silently fills gaps with fresh (possibly long) runs.
     */
    bool merge_strict = false;
    /** @} */

    /** @name Open-loop traffic (src/traffic) */
    /** @{ */
    /**
     * Arrival-process spec (traffic::ArrivalSpec grammar, e.g.
     * "poisson:rate=2000:requests=4000"). Non-empty switches every run
     * to the open loop: workers serve a seeded request stream through
     * the traffic engine instead of draining a pre-filled task pool,
     * and RunResult::traffic carries the per-request sojourn /
     * queueing / service tail statistics. Must parse — validate with
     * traffic::ArrivalSpec::parse first (the CLI does).
     */
    std::string arrivals;
    /** @} */

    /** @name Latency attribution (profile::TaskProfiler) */
    /** @{ */
    /**
     * Attach the wait-state attribution profiler to every run, filling
     * RunResult::profile. A pure observer: profiled runs stay
     * byte-identical in primary stats to unprofiled runs.
     */
    bool profile = false;
    /** Slowest-task records kept per run (blame table + timeline). */
    std::uint32_t profile_topk = 5;
    /** @} */

    /** @name Telemetry outputs */
    /** @{ */
    /**
     * Chrome-trace timeline path (empty = no timeline). "{app}" and
     * "{threads}" placeholders are substituted per run; when the same
     * resolved path would be written twice in one campaign (e.g. a
     * sweep), later runs get an automatic "-<app>-t<threads>" suffix.
     */
    std::string timeline_path;
    /** Metric-sampler CSV path; empty derives "<timeline>.metrics.csv". */
    std::string metrics_path;
    /** Metric sampling period (0 = sampling disabled). */
    Ticks metrics_interval = 0;
    /** @} */
};

/**
 * Insert "-<tag>" before the extension of every per-run artifact path
 * of @p cfg (timeline, metrics, error), so the arms of a multi-arm
 * study never write the same file.
 */
void tagArtifactPaths(ExperimentConfig &cfg, const std::string &tag);

/** Hook to attach observation tools to the VM before a run starts. */
using VmAttachHook = std::function<void(jvm::JavaVm &)>;

class RunRig;

/**
 * Builds a listener for one run from its rig (a fuzz case's saboteur,
 * which forges events into the rig's oracle suite). The run owns the
 * listener and attaches it to VM 0 after every observer.
 */
using RunProbe =
    std::function<std::unique_ptr<jvm::RuntimeListener>(RunRig &)>;

/** Factory producing a fresh ApplicationModel for each run. */
using AppFactory =
    std::function<std::unique_ptr<jvm::ApplicationModel>()>;

/** One VM of a run. */
struct RigVm
{
    /** Closed-loop application (not owned; unused when `arrival` is
     *  set: the VM then serves the task body of the model
     *  makeDacapoApp builds for `app_name`). */
    jvm::ApplicationModel *app = nullptr;
    std::string app_name;
    std::uint32_t threads = 1;
    Bytes heap_capacity = 0;
    /** Open-loop arrival stream (empty = closed loop). */
    std::optional<traffic::ArrivalSpec> arrival;
};

/** Everything one run needs besides its ExperimentConfig. */
struct RigInputs
{
    std::uint64_t seed = 0;
    /** One entry per VM; several VMs share the machine as tenants. */
    std::vector<RigVm> vms;
    /** Telemetry of VM 0 (empty = off); a timeline needs one VM. */
    std::string timeline_file = {};
    std::string metrics_file = {};
};

/** The config of one campaign arm, shared by all of its points. */
using ArmConfig = std::shared_ptr<const ExperimentConfig>;

/**
 * One point of a batch: a model at a thread count under one arm, with
 * its sim seed and its identity in the campaign. dacapoPoint() builds
 * the point of a DaCapo app; a fuzz case brings its own model, seed,
 * key and probe.
 */
struct CampaignPoint
{
    AppFactory factory;
    std::uint32_t threads = 1;
    ArmConfig arm;
    std::uint64_t seed = 0;
    /** Identity within the campaign: the cache and shard key. */
    std::string key;
    RunProbe probe; ///< empty = none
    /** Min-heap calibration key (an app name); empty = the arm fixes
     *  the heap (heap_override). */
    std::string calibration;
};

/**
 * The point of DaCapo app @p app at @p threads under @p arm: its seed
 * derives from (arm seed, app, threads), its key is
 * "<app>|t<threads>|s<hex seed>" and its heap is calibrated under @p app.
 */
CampaignPoint dacapoPoint(ArmConfig arm, const std::string &app,
                          std::uint32_t threads);

/** run_error of a point a strict merge found missing from the cache. */
inline constexpr const char *kMissingPointError =
    "missing from shard result cache (incomplete campaign)";

/**
 * Drives single runs, sweeps and multi-arm batches per the paper's
 * methodology. Its own config is the default arm and supplies a batch's
 * execution settings (jobs, shard slice, cache directory, merge mode).
 */
class ExperimentRunner
{
  public:
    explicit ExperimentRunner(ExperimentConfig config = {});

    /**
     * Minimum heap requirement of @p app_name (smallest heap in which
     * the live data fits the old generation), measured by a calibration
     * run and cached per app.
     */
    Bytes minHeapRequirement(const std::string &app_name);

    /** Heap of a run of @p app_name: override or heap_factor x minimum. */
    Bytes heapCapacity(const std::string &app_name);

    /** Run a DaCapo app with threads == enabled cores (paper setup). */
    jvm::RunResult runApp(const std::string &app_name,
                          std::uint32_t threads,
                          const VmAttachHook &attach = {});

    /**
     * Run a custom application model, heap sized like runApp. Like the
     * app name of runApp, @p cache_key keys the heap calibration and
     * derives the run's seed and point key.
     */
    jvm::RunResult runCustom(const AppFactory &factory,
                             const std::string &cache_key,
                             std::uint32_t threads,
                             const VmAttachHook &attach = {});

    /**
     * Run one point here, outside any batch: no cache, shard slice or
     * isolation, so a run that aborts throws. It simulates exactly as
     * the same point does in runPoints(). runApp() and runCustom() are
     * this for a DaCapo and a named custom point.
     */
    jvm::RunResult runPoint(const CampaignPoint &point,
                            const VmAttachHook &attach = {});

    /**
     * Run @p specs as co-hosted tenants of one simulated machine: one
     * JavaVm per tenant, all contending on one shared scheduler, each
     * fed by its own arrival stream (the config's `arrivals` field is
     * ignored here — every tenant carries its own). Every per-VM part
     * of the run rig (profiler, governor, watchdog, oracles) is built
     * per tenant; a bias rotation, a fault plan or a timeline cannot
     * be split between tenants and must be off. Cores enabled = sum
     * of tenant threads, clipped to the machine. Heaps are sized per
     * tenant app exactly like runApp. Returns one result per tenant,
     * in spec order, traffic summaries filled. @p attach runs on every
     * tenant's VM once its observers are attached.
     */
    std::vector<jvm::RunResult>
    runTenants(const std::vector<traffic::TenantSpec> &specs,
               const VmAttachHook &attach = {});

    /**
     * Run @p points, each under its own arm, as one batch: plan every
     * point (an app's heap is calibrated once per runner, under the arm
     * of its first point), then fan the batch out across host workers.
     * Results come back in point order.
     */
    std::vector<jvm::RunResult>
    runPoints(const std::vector<CampaignPoint> &points);

    /** Sweep an app over thread counts. */
    std::vector<jvm::RunResult>
    sweep(const std::string &app_name,
          const std::vector<std::uint32_t> &threads);

    /**
     * Sweep several apps over the same thread counts as one batch, so
     * the whole (app x threads) cross product fans out across host
     * workers instead of one app at a time. Results are keyed by app,
     * in the same order sequential per-app sweeps would produce.
     */
    std::map<std::string, std::vector<jvm::RunResult>>
    sweepApps(const std::vector<std::string> &apps,
              const std::vector<std::uint32_t> &threads);

    /**
     * Run @p replicas independent repetitions (distinct derived seeds)
     * of one configuration, for confidence intervals over the
     * simulator's stochastic components.
     */
    std::vector<jvm::RunResult>
    runReplicated(const std::string &app_name, std::uint32_t threads,
                  std::uint32_t replicas);

    /** The paper's thread/core settings, clipped to this machine. */
    std::vector<std::uint32_t> paperThreadCounts() const;

    /**
     * Campaign-configuration identity string of the default arm. Binds
     * run-cache records to their arm and is embedded in golden-run
     * files so a verify against a differently configured campaign
     * fails fast instead of diffing unrelated numbers.
     */
    std::string campaignFingerprint() const;

  private:
    /**
     * Everything one run needs, resolved up front on the main thread:
     * the arm, the application model, derived seed, heap size and
     * claimed artifact paths. Once planned, executing the run touches
     * no runner state, so plans can execute on any host thread in any
     * order without changing what they compute.
     */
    struct RunPlan
    {
        ArmConfig arm;
        std::string fingerprint; ///< binds the run's cache record
        std::unique_ptr<jvm::ApplicationModel> app;
        /** Seed, the one VM, timeline and metrics paths. */
        RigInputs inputs;
        std::string error_file; ///< empty = no error artifact
        /** Identity of this run within its campaign (cache and shard
         *  key). */
        std::string point_key;
        RunProbe probe; ///< empty = none

        /** Name the empty result @p r after this run: a row with
         *  nothing measured. */
        void mark(jvm::RunResult &r) const;
    };

    /** Plan @p point: calibrate its heap, build its app, claim its
     *  artifacts. @p fingerprint binds its cache record. */
    RunPlan planRun(const CampaignPoint &point, std::string fingerprint);

    /** Execute a planned run into @p out; touches no runner state
     *  (thread-safe). */
    static void executePlan(const RunPlan &plan, const VmAttachHook &attach,
                            jvm::RunResult &out);

    /**
     * Execute a batch of plans with per-run error isolation: a run
     * that aborts (watchdog, sim-time guard) is written out as an
     * error artifact and returned as a RunResult::failed() marker
     * while the rest of the batch completes. Honors the shard slice and
     * the run cache when configured.
     */
    std::vector<jvm::RunResult>
    executePlans(const std::vector<RunPlan> &plans);

    /** Minimum heap of an app, calibrated under @p arm on first use. */
    Bytes minHeapFor(const ExperimentConfig &arm, const AppFactory &factory,
                     const std::string &cache_key);

    /** heapCapacity() of an app under @p arm. */
    Bytes heapCapacity(const ExperimentConfig &arm, const AppFactory &factory,
                       const std::string &cache_key);

    /**
     * Resolve an artifact path template for one run: substitute
     * placeholders and de-collide against paths already claimed in this
     * campaign.
     */
    std::string claimArtifactPath(const std::string &templ,
                                  const std::string &app,
                                  std::uint32_t threads);

    ArmConfig config_;
    std::map<std::string, Bytes> min_heap_cache_;
    std::set<std::string> used_artifact_paths_;
};

} // namespace jscale::core

#endif // JSCALE_CORE_EXPERIMENT_HH
