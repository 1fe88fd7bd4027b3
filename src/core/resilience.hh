/**
 * @file
 * E18 — resilience study: throughput and GC/lock shares as a function
 * of fault intensity, governed vs. ungoverned.
 *
 * Each point on the intensity axis expands into a reproducible
 * mixed-fault schedule (fault::FaultPlan::fromIntensity) and runs the
 * same app/thread configuration twice: once ungoverned and once under
 * the concurrency governor, to show how admission control re-targets
 * after capacity loss. Runs execute through the experiment harness, so
 * aborted points become per-run error artifacts and failed() markers
 * while the rest of the study completes.
 */

#ifndef JSCALE_CORE_RESILIENCE_HH
#define JSCALE_CORE_RESILIENCE_HH

#include <ostream>
#include <string>
#include <vector>

#include "base/output.hh"
#include "control/governor.hh"
#include "core/experiment.hh"
#include "jvm/runtime/vm.hh"

namespace jscale::core {

/** Configuration of the E18 resilience study. */
struct ResilienceConfig
{
    std::string app = "xalan";
    std::uint32_t threads = 16;
    /** The x-axis: fault intensity dial in [0, 1] per point. */
    std::vector<double> intensities = {0.0, 0.25, 0.5, 0.75, 1.0};
    /**
     * Window within which each expanded schedule fires. 0 = auto: an
     * unfaulted probe run measures the wall time and the horizon is set
     * to 3/4 of it, so the schedule always lands inside the run.
     */
    Ticks horizon = 0;
    /** Admission policy of the governed arm. */
    control::GovernorMode governed_mode = control::GovernorMode::HillClimb;
    /**
     * Base campaign settings (machine, seed, heap, watchdog, run
     * cache). Artifact paths are tagged per point/arm so the arms never
     * clobber each other; each arm's distinct campaign fingerprint
     * keeps its cached records apart.
     */
    ExperimentConfig base;
};

/** One intensity point: the same run with and without the governor. */
struct ResiliencePoint
{
    double intensity = 0.0;
    /** The expanded fault schedule (reporting / reproduction). */
    std::string plan;
    jvm::RunResult ungoverned;
    jvm::RunResult governed;
};

/**
 * Run the study: |intensities| points x {ungoverned, governed}. A point
 * whose run aborts (watchdog, sim-time guard) carries a failed() marker
 * in the corresponding arm; the study itself always completes.
 */
std::vector<ResiliencePoint>
runResilienceStudy(const ResilienceConfig &config);

/** Aligned-text study report (throughput, shares, governor target). */
void printResilienceTable(std::ostream &os,
                          const std::vector<ResiliencePoint> &points);

/**
 * The study's table, one row per (intensity, arm); a failed arm's text
 * shows only its key, status and governor target.
 */
TextTable resilienceTable(const std::vector<ResiliencePoint> &points);

} // namespace jscale::core

#endif // JSCALE_CORE_RESILIENCE_HH
