/**
 * @file
 * RunWatchdog: sim-time livelock detector for one run.
 *
 * A recurring event samples the VM's progress gauges (mutator actions
 * executed, collections completed, mutators finished). When none of
 * them moves for a configurable number of consecutive intervals, the
 * run is livelocked (or deadlocked past the monitor table's cycle
 * detector) and the watchdog throws WatchdogError with a per-thread
 * state diagnostic. The experiment harness catches the error at the
 * run boundary and isolates it as a per-run failure artifact; the rest
 * of the study continues.
 *
 * The watchdog only reads simulation state, so attaching it never
 * changes a run's results.
 */

#ifndef JSCALE_FAULT_WATCHDOG_HH
#define JSCALE_FAULT_WATCHDOG_HH

#include <cstdint>
#include <string>

#include "base/units.hh"
#include "sim/event.hh"

namespace jscale::sim {
class Simulation;
} // namespace jscale::sim

namespace jscale::jvm {
class JavaVm;
} // namespace jscale::jvm

namespace jscale::fault {

/** Watchdog tunables. */
struct WatchdogConfig
{
    /** Gauge sampling period (simulated time). */
    Ticks interval = 1 * units::SEC;
    /** Consecutive no-progress intervals before aborting the run. */
    std::uint32_t stalled_limit = 3;
};

/** The detector. Construct after the VM, start() before run(),
 *  stop() once the VM's run completes. */
class RunWatchdog
{
  public:
    RunWatchdog(sim::Simulation &sim, jvm::JavaVm &vm,
                const WatchdogConfig &config = {});

    RunWatchdog(const RunWatchdog &) = delete;
    RunWatchdog &operator=(const RunWatchdog &) = delete;

    /** Arm the periodic check; first sample at @p now + interval. */
    void start(Ticks now);

    /** Disarm the check: the VM's run is over, so its gauges stop
     *  moving while a co-hosted VM may still be running. */
    void stop() { tick_.stop(); }

    /** Samples taken so far. */
    std::uint64_t checks() const { return checks_; }

  private:
    /** Sample gauges; throws WatchdogError after stalled_limit misses. */
    void check();

    /** Per-thread state summary for the abort diagnostic. */
    std::string diagnostic() const;

    sim::Simulation &sim_;
    jvm::JavaVm &vm_;
    WatchdogConfig config_;
    sim::RecurringEvent tick_;

    std::uint64_t checks_ = 0;
    std::uint32_t stalled_ = 0;
    std::uint64_t last_actions_ = 0;
    std::uint64_t last_gcs_ = 0;
    std::uint32_t last_finished_ = 0;
};

} // namespace jscale::fault

#endif // JSCALE_FAULT_WATCHDOG_HH
