/**
 * @file
 * ConcurrencyGovernor: online thread-throttling (concurrency
 * restriction) for a running VM.
 *
 * The paper shows every application has a scalability knee: past it,
 * added threads only grow GC time and lock contention. Dice & Kogan
 * ("Avoiding Scalability Collapse by Restricting Concurrency") recover
 * the lost throughput by limiting how many threads are *admitted* to
 * the workload at a time. This governor implements that loop inside the
 * simulation: a periodic decision event samples signals the runtime
 * already exposes (tasks retired per interval, lock block-time share,
 * GC-time share), maintains an admission target, and parks surplus
 * mutators at task-fetch boundaries via the jvm::TaskAdmission hook —
 * waking them through the scheduler when the target rises or a peer
 * finishes.
 *
 * Two policies:
 *  - HillClimb: move the target up or down each interval, reversing
 *    (and halving the step) when measured throughput regresses —
 *    Dice & Kogan-style gradient-free search.
 *  - UslGuided: spend a calibration prefix stepping through a ladder of
 *    concurrency levels, fit the Universal Scalability Law to the
 *    measured throughputs, then clamp the target to the fitted n*.
 *
 * Every decision derives from simulation state alone, so governed runs
 * stay byte-identical across --jobs settings.
 */

#ifndef JSCALE_CONTROL_GOVERNOR_HH
#define JSCALE_CONTROL_GOVERNOR_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "base/units.hh"
#include "control/usl.hh"
#include "jvm/runtime/admission.hh"
#include "sim/event.hh"

namespace jscale::sim {
class Simulation;
} // namespace jscale::sim

namespace jscale::jvm {
class JavaVm;
} // namespace jscale::jvm

namespace jscale::control {

/** Admission policies. */
enum class GovernorMode : std::uint8_t
{
    Off,       ///< admit everything (no governor activity)
    HillClimb, ///< throughput hill climbing
    UslGuided, ///< calibration prefix + USL-fitted clamp
};

/** Number of GovernorMode values. */
inline constexpr std::size_t kGovernorModes = 3;

/** Short policy name ("off", "hill", "usl"). */
const char *governorModeName(GovernorMode mode);

/** Tunables of the governor. */
struct GovernorConfig
{
    GovernorMode mode = GovernorMode::Off;
    /** Decision (sampling) interval. */
    Ticks interval = 5 * units::MS;
    /** Never admit fewer mutators than this. */
    std::uint32_t min_active = 1;
    /** HillClimb: relative throughput deadband before reversing. */
    double tolerance = 0.05;
    /** HillClimb: combined GC + lock block share of an interval above
     *  which the governor forces the target downward. */
    double pressure_limit = 0.5;
    /** UslGuided: decision intervals per calibration level (the first
     *  settles the level, the last one measures). */
    std::uint32_t calib_ticks_per_level = 2;
};

/**
 * The governor. Construct after the VM, then install with
 * vm.setTaskAdmission(&gov) before run(); the VM drives the rest
 * through the TaskAdmission interface.
 */
class ConcurrencyGovernor : public jvm::TaskAdmission
{
  public:
    ConcurrencyGovernor(sim::Simulation &sim, jvm::JavaVm &vm,
                        const GovernorConfig &config);
    ~ConcurrencyGovernor() override;

    ConcurrencyGovernor(const ConcurrencyGovernor &) = delete;
    ConcurrencyGovernor &operator=(const ConcurrencyGovernor &) = delete;

    /** @name jvm::TaskAdmission */
    /** @{ */
    void onRunStart(std::uint32_t n_threads, Ticks now) override;
    bool admitTask(jvm::MutatorThread &t, Ticks now) override;
    void onMutatorFinished(jvm::MutatorThread &t, Ticks now) override;
    bool cancelPark(jvm::MutatorThread &t, Ticks now) override;
    void onRunEnd(Ticks now) override;
    void summarize(jvm::GovernorSummary &out) const override;
    std::uint32_t admissionTarget() const override { return target_; }
    std::uint32_t parkedNow() const override { return parkedCount(); }
    /** @} */

    /** Current admission target. */
    std::uint32_t target() const { return target_; }

    /** Mutators currently held at task-fetch boundaries. */
    std::uint32_t parkedCount() const
    {
        return static_cast<std::uint32_t>(parked_.size());
    }

    /** Unfinished mutators not currently parked. */
    std::uint32_t admitted() const
    {
        return live_ - parkedCount();
    }

    std::uint64_t decisions() const { return decisions_; }
    std::uint64_t parks() const { return parks_; }
    std::uint64_t unparks() const { return unparks_; }

    const GovernorConfig &config() const { return config_; }

  private:
    /** Periodic decision: sample, update the target, publish. */
    void decide();

    /** Policy updates given this interval's task throughput. */
    void decideHillClimb(std::uint64_t tput, double pressure);
    void decideUslGuided(std::uint64_t tput);

    /** Wake parked threads (FIFO) until admitted() reaches target_. */
    void unparkToTarget();

    /** Clamp and record a new target. */
    void setTarget(std::uint32_t t);

    sim::Simulation &sim_;
    jvm::JavaVm &vm_;
    GovernorConfig config_;

    std::unique_ptr<sim::RecurringEvent> tick_event_;

    std::uint32_t n_threads_ = 0;
    /** Online cores when the run started (capacity-loss detection). */
    std::uint32_t start_online_ = 0;
    /** Unfinished mutators (parked or admitted). */
    std::uint32_t live_ = 0;
    std::uint32_t target_ = 0;
    std::uint32_t min_target_seen_ = 0;
    std::uint32_t max_target_seen_ = 0;
    /** Admission-parked mutators in park order (FIFO wake). */
    std::deque<jvm::MutatorThread *> parked_;

    /** @name Interval sampling state */
    /** @{ */
    std::uint64_t last_tasks_ = 0;
    Ticks last_gc_pause_ = 0;
    Ticks last_lock_block_ = 0;
    bool have_baseline_ = false;
    std::uint64_t prev_tput_ = 0;
    /** @} */

    /** @name HillClimb state */
    /** @{ */
    int direction_ = -1; ///< first probe moves down (collapse recovery)
    std::uint32_t step_ = 1;
    /** @} */

    /** @name UslGuided state */
    /** @{ */
    std::vector<std::uint32_t> calib_levels_;
    std::vector<std::uint64_t> calib_tput_;
    std::size_t calib_level_idx_ = 0;
    std::uint32_t calib_ticks_at_level_ = 0;
    bool calibrated_ = false;
    UslFit fit_;
    /** @} */

    std::uint64_t decisions_ = 0;
    std::uint64_t parks_ = 0;
    std::uint64_t unparks_ = 0;
};

} // namespace jscale::control

#endif // JSCALE_CONTROL_GOVERNOR_HH
