/**
 * @file
 * RunRig: the one code path that builds a simulated run.
 *
 * Every run — a sweep point, a co-hosted tenant run, the min-heap
 * calibration and a fuzz case — is an ExperimentConfig plus per-run
 * inputs (seed, one app per VM, thread counts, heap sizes, artifact
 * paths). The rig builds the machine-level parts once (simulation,
 * machine, scheduler, bias policy and its rotator), then each VM's
 * parts in one fixed order, runs, and finishes the parts in one fixed
 * order. docs/architecture.md ("Run rig") gives the reason for every
 * edge of both orders.
 */

#ifndef JSCALE_CORE_RIG_HH
#define JSCALE_CORE_RIG_HH

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/atomic_file.hh"
#include "check/oracle.hh"
#include "control/governor.hh"
#include "core/experiment.hh"
#include "fault/injector.hh"
#include "fault/watchdog.hh"
#include "os/scheduler.hh"
#include "profile/ledger.hh"
#include "profile/profiler.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"
#include "telemetry/recorder.hh"
#include "telemetry/sampler.hh"
#include "telemetry/timeline.hh"
#include "traffic/engine.hh"
#include "traffic/open_loop_app.hh"
#include "workload/source.hh"

namespace jscale::core {

/** Open an atomic writer for a per-run artifact. A failure is not
 *  fatal: it lands in @p errors and the run goes on without it. */
bool openArtifact(std::optional<AtomicFileWriter> &writer,
                  const std::string &path, std::vector<std::string> &errors);

/** Publish a finished artifact (flush + fsync + rename), so a killed
 *  process never leaves a torn file; a failure lands in @p errors. */
bool commitArtifact(std::optional<AtomicFileWriter> &writer,
                    std::vector<std::string> &errors);

/**
 * A run under construction. The constructor builds every part; run()
 * attaches the caller's hook to each VM, runs, and finishes the parts.
 * Enabled cores = the VMs' threads summed, clipped to the machine.
 * @p config must outlive the rig.
 */
class RunRig
{
  public:
    RunRig(const ExperimentConfig &config, RigInputs inputs);

    RunRig(const RunRig &) = delete;
    RunRig &operator=(const RunRig &) = delete;

    /**
     * Run once: prepare each VM, one shared sim.run that the last VM
     * to finish stops, collect each VM's result into @p results (one
     * per VM, in input order). An aborted run throws; the rig's parts
     * stay readable.
     */
    void run(std::span<jvm::RunResult> results,
             const VmAttachHook &attach = {});

    sim::Simulation &sim() { return sim_; }
    jvm::JavaVm &vm(std::size_t i) { return *vms_[i].vm; }
    /** VM @p i's oracle suite; nullptr unless config.oracles. */
    check::OracleSuite *
    oracles(std::size_t i)
    {
        return vms_[i].oracles ? &*vms_[i].oracles : nullptr;
    }

  private:
    /** One VM and its parts, declared in build order (destroyed in
     *  reverse: every part detaches before what it observes dies). */
    struct VmParts
    {
        std::optional<jvm::JavaVm> vm;
        std::optional<profile::ThreadStateLedger> ledger;
        std::optional<profile::TaskProfiler> profiler;
        /** The model an open-loop VM serves. */
        std::unique_ptr<workload::WorkloadApp> served;
        std::optional<traffic::TrafficEngine> engine;
        std::optional<traffic::OpenLoopApp> open_loop;
        std::optional<control::ConcurrencyGovernor> governor;
        std::optional<fault::FaultInjector> injector;
        std::optional<fault::RunWatchdog> watchdog;
        std::optional<check::OracleSuite> oracles;

        /** What the VM runs: the input app or the open-loop server. */
        jvm::ApplicationModel *app = nullptr;
    };

    void buildVm(std::size_t i);
    void buildTelemetry();
    void finish(std::span<jvm::RunResult> results);

    const ExperimentConfig &config_;
    const RigInputs inputs_;

    sim::Simulation sim_;
    machine::Machine mach_;
    os::Scheduler sched_;
    /** Declared after sched_ so it is descheduled before the queue
     *  dies. */
    std::optional<sim::RecurringEvent> rotator_;
    /** One entry per VM; a deque keeps each VM's parts in place as
     *  the next VM's are built. */
    std::deque<VmParts> vms_;

    std::vector<std::string> artifact_errors_;
    std::optional<AtomicFileWriter> timeline_writer_;
    std::optional<telemetry::Timeline> timeline_;
    std::optional<telemetry::TelemetryRecorder> recorder_;
    std::optional<telemetry::MetricSampler> sampler_;
};

} // namespace jscale::core

#endif // JSCALE_CORE_RIG_HH
